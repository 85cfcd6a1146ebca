package main

import (
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const unstableSrc = `package p

import "sort"

func f(xs []int) {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
}
`

// pkgDir writes one source file as a package directory of its own.
func pkgDir(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestExitCodes pins the contract CI depends on: 0 clean, 1 findings,
// 2 parse failure or bad arguments.
func TestExitCodes(t *testing.T) {
	clean := pkgDir(t, "package p\n\nfunc ok() {}\n")
	bad := pkgDir(t, unstableSrc)
	broken := pkgDir(t, "package p\n\nfunc {")

	if got := run([]string{clean}); got != 0 {
		t.Errorf("clean package: exit %d, want 0", got)
	}
	if got := run([]string{bad}); got != 1 {
		t.Errorf("finding: exit %d, want 1", got)
	}
	if got := run([]string{clean + "/..."}); got != 0 {
		t.Errorf("clean tree: exit %d, want 0", got)
	}
	if got := run([]string{broken}); got != 2 {
		t.Errorf("parse error: exit %d, want 2", got)
	}
	if got := run([]string{filepath.Join(bad, "p.go")}); got != 2 {
		t.Errorf("file argument: exit %d, want 2", got)
	}
	if got := run([]string{"-nosuchflag"}); got != 2 {
		t.Errorf("bad flag: exit %d, want 2", got)
	}
}

// TestAnalyzersFlag pins the suite: -analyzers lists exactly the six
// analyzers DESIGN.md §7 justifies, one per line, in lint.All() order.
// Adding one means adding its mutant row there first.
func TestAnalyzersFlag(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	code := run([]string{"-analyzers"})
	os.Stdout = stdout
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("-analyzers: exit %d, want 0", code)
	}
	var got []string
	for _, line := range strings.Split(string(out), "\n") {
		if name, _, ok := strings.Cut(line, " "); ok {
			got = append(got, name)
		}
	}
	want := []string{"mapiter", "walltime", "unstablesort", "spanend", "errdrop", "obsreg"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("-analyzers lists %v, want %v", got, want)
	}
}
