// Positive fixtures: every loop here must be flagged by mapiter.
package fixtures

import (
	"fmt"
	"io"
	"strings"
)

// collectKeys appends map keys with no sort afterwards: the slice order
// changes run to run.
func collectKeys(m map[string]int) []string {
	var out []string
	for k := range m { // want "mapiter: appends to out"
		out = append(out, k)
	}
	return out
}

// emit writes rows straight from map iteration; sorting later cannot
// reorder bytes already written.
func emit(w io.Writer, m map[string]int) {
	for k, v := range m { // want "mapiter: writes via fmt.Fprintf"
		fmt.Fprintf(w, "%s=%d\n", k, v)
	}
}

// render builds output through a strings.Builder inside the range.
func render(m map[string]string) string {
	var b strings.Builder
	for _, v := range m { // want "mapiter: writes via b.WriteString"
		b.WriteString(v)
	}
	return b.String()
}

// sumWeights accumulates a float64 in map order; float addition is not
// associative, so the total is run-dependent in the low bits.
func sumWeights(weights map[string]float64) float64 {
	total := 0.0
	for _, w := range weights { // want "mapiter: accumulates float total"
		total += w
	}
	return total
}

// fieldRange ranges over a map-typed struct field declared in this file.
type registry struct {
	entries map[string]int
}

func (r *registry) names() []string {
	out := make([]string, 0, len(r.entries))
	for name := range r.entries { // want "mapiter: appends to out"
		out = append(out, name)
	}
	return out
}

// lineOf concatenates keys in map order: the string differs run to run.
func lineOf(m map[string]int) string {
	var line string
	for k := range m { // want "mapiter: accumulates string line"
		line += k
	}
	return line
}
