// Package sigset implements the Signature Set Tuple (Definitions 4 and 5
// of the paper): the pattern representation of the causality analysis. A
// tuple generalises runtime interactions related to cost propagation into
// three signature sets — wait signatures (functions that suspend their
// callers), unwait signatures (functions that signal suspended threads),
// and running signatures (CPU work or the dummy hardware-service
// signature) — so that variations of a cost-propagation sequence map to
// one pattern.
package sigset

import (
	"sort"
	"strings"
)

// HardwareSignature is the dummy running signature representing hardware
// service events (Definition 3).
const HardwareSignature = "HardwareService"

// Tuple is a Signature Set Tuple. Each field is sorted and duplicate-free;
// always build tuples through New or the builder methods so the canonical
// form holds.
type Tuple struct {
	Wait    []string
	Unwait  []string
	Running []string
}

// New builds a canonical tuple from (possibly unsorted, duplicated)
// signature sets.
func New(wait, unwait, running []string) Tuple {
	return Tuple{
		Wait:    canon(wait),
		Unwait:  canon(unwait),
		Running: canon(running),
	}
}

func canon(in []string) []string {
	if len(in) == 0 {
		return nil
	}
	out := make([]string, 0, len(in))
	seen := make(map[string]bool, len(in))
	for _, s := range in {
		if s == "" || seen[s] {
			continue
		}
		seen[s] = true
		out = append(out, s)
	}
	sort.Strings(out)
	if len(out) == 0 {
		return nil
	}
	return out
}

// IsEmpty reports whether all three sets are empty.
func (t Tuple) IsEmpty() bool {
	return len(t.Wait) == 0 && len(t.Unwait) == 0 && len(t.Running) == 0
}

// Key returns a canonical string form usable as a map key: each set in
// order behind its letter ('W', 'U', 'R'), members separated by ',' and
// the set closed by ';'. A '\', ',' or ';' inside a signature is escaped
// with a '\', so distinct tuples never share a key — a Go function name
// with two type parameters carries a ','. A signature without those
// characters is written as is.
func (t Tuple) Key() string {
	n := 6 // three letters, three ';'
	for _, set := range [3][]string{t.Wait, t.Unwait, t.Running} {
		for _, s := range set {
			n += len(s) + 1
		}
	}
	var b strings.Builder
	b.Grow(n)
	writeSet := func(prefix byte, set []string) {
		b.WriteByte(prefix)
		for i, s := range set {
			if i > 0 {
				b.WriteByte(',')
			}
			writeEscaped(&b, s)
		}
		b.WriteByte(';')
	}
	writeSet('W', t.Wait)
	writeSet('U', t.Unwait)
	writeSet('R', t.Running)
	return b.String()
}

// writeEscaped writes s to b with every '\', ',' and ';' preceded by a '\'.
func writeEscaped(b *strings.Builder, s string) {
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\', ',', ';':
			b.WriteString(s[start:i])
			b.WriteByte('\\')
			start = i
		}
	}
	b.WriteString(s[start:])
}

// String renders the tuple in the paper's display form.
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteString("wait{")
	b.WriteString(strings.Join(t.Wait, ", "))
	b.WriteString("} unwait{")
	b.WriteString(strings.Join(t.Unwait, ", "))
	b.WriteString("} running{")
	b.WriteString(strings.Join(t.Running, ", "))
	b.WriteString("}")
	return b.String()
}

// Contains reports whether t contains sub set-wise: every signature of
// sub's three sets appears in the corresponding set of t. Used to test
// whether a full-path pattern contains a contrast meta-pattern (§4.2.3).
func (t Tuple) Contains(sub Tuple) bool {
	return containsAll(t.Wait, sub.Wait) &&
		containsAll(t.Unwait, sub.Unwait) &&
		containsAll(t.Running, sub.Running)
}

// containsAll reports whether sorted haystack contains every element of
// sorted needle.
func containsAll(haystack, needle []string) bool {
	if len(needle) > len(haystack) {
		return false
	}
	i := 0
	for _, n := range needle {
		for i < len(haystack) && haystack[i] < n {
			i++
		}
		if i >= len(haystack) || haystack[i] != n {
			return false
		}
		i++
	}
	return true
}

// Signatures returns all signatures of the tuple (union of the three
// sets), canonicalised.
func (t Tuple) Signatures() []string {
	return canon(append(append(append([]string{}, t.Wait...), t.Unwait...), t.Running...))
}
