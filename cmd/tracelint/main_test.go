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

func write(t *testing.T, dir, name, src string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestExitCodes pins the contract CI depends on: 0 clean, 1 findings,
// 2 parse failure.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	clean := write(t, dir, "clean.go", "package p\n\nfunc ok() {}\n")
	bad := write(t, dir, "bad.go", unstableSrc)
	broken := write(t, dir, "broken.go", "package p\n\nfunc {")

	if got := run([]string{clean}); got != 0 {
		t.Errorf("clean file: exit %d, want 0", got)
	}
	if got := run([]string{bad}); got != 1 {
		t.Errorf("finding: exit %d, want 1", got)
	}
	if got := run([]string{broken}); got != 2 {
		t.Errorf("parse error: exit %d, want 2", got)
	}
	if got := run([]string{"-nosuchflag"}); got != 2 {
		t.Errorf("bad flag: exit %d, want 2", got)
	}
}

// TestPkgFilter: -pkg restricts the run; a non-matching filter analyzes
// nothing and exits clean.
func TestPkgFilter(t *testing.T) {
	dir := t.TempDir()
	bad := write(t, dir, "bad.go", unstableSrc)

	if got := run([]string{"-pkg", "p", bad}); got != 1 {
		t.Errorf("-pkg p: exit %d, want 1 (package name must match)", got)
	}
	if got := run([]string{"-pkg", filepath.Base(dir), bad}); got != 1 {
		t.Errorf("-pkg <dirbase>: exit %d, want 1 (dir base must match)", got)
	}
	if got := run([]string{"-pkg", "unrelated", bad}); got != 0 {
		t.Errorf("-pkg unrelated: exit %d, want 0 (filtered out)", got)
	}
}

// TestFixRoundTrip: -fix rewrites the file, leaves nothing fixable, and
// a second plain run is clean.
func TestFixRoundTrip(t *testing.T) {
	dir := t.TempDir()
	bad := write(t, dir, "bad.go", unstableSrc)

	if got := run([]string{"-fix", bad}); got != 0 {
		t.Errorf("-fix: exit %d, want 0 (everything was fixable)", got)
	}
	src, err := os.ReadFile(bad)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(src), "sort.SliceStable(") {
		t.Errorf("-fix did not rewrite to SliceStable:\n%s", src)
	}
	if got := run([]string{bad}); got != 0 {
		t.Errorf("after -fix: exit %d, want 0", got)
	}
	// Idempotence: a second -fix run must not change the file again.
	before := string(src)
	if got := run([]string{"-fix", bad}); got != 0 {
		t.Errorf("second -fix: exit %d, want 0", got)
	}
	after, err := os.ReadFile(bad)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != before {
		t.Errorf("-fix is not idempotent:\n--- first ---\n%s\n--- second ---\n%s", before, after)
	}
}

// TestTypedRunOnRepo: loading the module's own internal/trace package
// through the CLI path must work from the cmd/tracelint directory too
// (module discovery walks up from the target, not the cwd).
func TestTypedRunOnRepo(t *testing.T) {
	dir := filepath.Join("..", "..", "internal", "obs")
	if _, err := os.Stat(dir); err != nil {
		t.Skip("repo layout not available")
	}
	if got := run([]string{dir}); got != 0 {
		t.Errorf("internal/obs: exit %d, want 0 (tree is lint-clean)", got)
	}
}

// TestAnalyzersFlag pins the suite: -analyzers lists exactly the seven
// analyzers DESIGN.md §7 justifies, one per line, in lint.All() order.
// Adding one means adding its "earned by" row there first.
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
	want := []string{"mapiter", "walltime", "unstablesort", "detertaint", "spanend", "errdrop", "obsreg"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("-analyzers lists %v, want %v", got, want)
	}
}
