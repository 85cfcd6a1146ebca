package lint

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Every analyzer's self-check: its fixture directory — positive and
// negative files — is loaded as one type-checked package and run
// through the same // want harness CI runs.
func TestMapIterTestdata(t *testing.T) {
	RunTestdataPackage(t, filepath.Join("testdata", "mapiter"), []*Analyzer{MapIter})
}

func TestWallTimeTestdata(t *testing.T) {
	RunTestdataPackage(t, filepath.Join("testdata", "walltime"), []*Analyzer{WallTime})
}

func TestUnstableSortTestdata(t *testing.T) {
	RunTestdataPackage(t, filepath.Join("testdata", "unstablesort"), []*Analyzer{UnstableSort})
}

func TestErrDropTestdata(t *testing.T) {
	RunTestdataPackage(t, filepath.Join("testdata", "errdrop"), []*Analyzer{ErrDrop})
}

func TestSpanEndTestdata(t *testing.T) {
	RunTestdataPackage(t, filepath.Join("testdata", "spanend"), []*Analyzer{SpanEnd})
}

func TestObsRegTestdata(t *testing.T) {
	RunTestdataPackage(t, filepath.Join("testdata", "obsreg"), []*Analyzer{ObsReg})
}

// loadFiles writes the files into relDir under a fresh temp directory
// and loads them as one package. relDir places the package for the
// path-scoped analyzers (walltime applies under internal/ only).
func loadFiles(t *testing.T, relDir string, files map[string]string) *Package {
	t.Helper()
	dir := filepath.Join(t.TempDir(), relDir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, src := range files {
		writeFile(t, dir, name, src)
	}
	pkg, err := NewLoader(dir).LoadDir(dir)
	if err != nil {
		t.Fatalf("load %s: %v", relDir, err)
	}
	return pkg
}

// parse loads one inline source as a package file at rel.
func parse(t *testing.T, rel, src string) *File {
	t.Helper()
	return loadFiles(t, filepath.Dir(rel), map[string]string{filepath.Base(rel): src}).Files[0]
}

// run is RunPkg over the package a parsed file belongs to.
func run(f *File, analyzers []*Analyzer) []Diagnostic { return RunPkg(f.Pkg, analyzers) }

func TestSuppressionSameLine(t *testing.T) {
	src := `package p

import "sort"

func f(xs []int) {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] }) //lint:ignore unstablesort elements are unique
}
`
	f := parse(t, filepath.Join("internal", "p", "p.go"), src)
	if diags := run(f, All()); len(diags) != 0 {
		t.Fatalf("same-line suppression not honoured: %v", diags)
	}
}

func TestSuppressionWrongAnalyzer(t *testing.T) {
	src := `package p

import "sort"

func f(xs []int) {
	//lint:ignore mapiter wrong analyzer name on purpose
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
}
`
	f := parse(t, filepath.Join("internal", "p", "p.go"), src)
	diags := run(f, All())
	if len(diags) != 1 || diags[0].Analyzer != "unstablesort" {
		t.Fatalf("suppression for another analyzer must not silence unstablesort, got %v", diags)
	}
}

func TestSuppressionWildcardAndList(t *testing.T) {
	src := `package p

import "sort"

func f(xs []int) {
	//lint:ignore * quiet everything here
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
}

func g(xs []int) {
	//lint:ignore unstablesort,mapiter listed by name
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
}
`
	f := parse(t, filepath.Join("internal", "p", "p.go"), src)
	if diags := run(f, All()); len(diags) != 0 {
		t.Fatalf("wildcard/list suppressions not honoured: %v", diags)
	}
}

func TestMalformedSuppressionIsAFinding(t *testing.T) {
	src := `package p

func f() {
	//lint:ignore
	_ = 1
}
`
	f := parse(t, "p.go", src)
	diags := run(f, nil)
	if len(diags) != 1 || diags[0].Analyzer != "ignore" {
		t.Fatalf("malformed suppression must be reported, got %v", diags)
	}
}

func TestWallTimeScope(t *testing.T) {
	src := `package main

import "time"

func main() { _ = time.Now() }
`
	// Outside internal/: wall-clock use is legal (commands time themselves).
	f := parse(t, filepath.Join("cmd", "tracegen", "main.go"), src)
	if diags := run(f, []*Analyzer{WallTime}); len(diags) != 0 {
		t.Fatalf("walltime must not fire outside internal/, got %v", diags)
	}
	// Same source under internal/: flagged.
	f = parse(t, filepath.Join("internal", "core", "x.go"), src)
	if diags := run(f, []*Analyzer{WallTime}); len(diags) != 1 {
		t.Fatalf("walltime must fire under internal/, got %v", diags)
	}
	// Test files are exempt (benchmarks time themselves).
	pkg := loadFiles(t, filepath.Join("internal", "core"), map[string]string{
		"x.go":      "package main\n",
		"x_test.go": strings.Replace(src, "func main()", "func stamp()", 1),
	})
	if len(pkg.TestFiles) != 1 {
		t.Fatalf("want the test file loaded, got %d", len(pkg.TestFiles))
	}
	if diags := RunPkg(pkg, []*Analyzer{WallTime}); len(diags) != 0 {
		t.Fatalf("walltime must not fire in _test.go, got %v", diags)
	}
}

func TestRenamedImportResolved(t *testing.T) {
	src := `package p

import (
	r "math/rand"
	"time"
)

var _ = time.Time{}

func f(n int) int { return r.Intn(n) }
`
	f := parse(t, filepath.Join("internal", "p", "p.go"), src)
	diags := run(f, []*Analyzer{WallTime})
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "r.Intn") {
		t.Fatalf("renamed math/rand import must still be flagged, got %v", diags)
	}
}

func TestCryptoRandNotFlagged(t *testing.T) {
	src := `package p

import "crypto/rand"

func f(b []byte) { rand.Read(b) }
`
	f := parse(t, filepath.Join("internal", "p", "p.go"), src)
	if diags := run(f, []*Analyzer{WallTime}); len(diags) != 0 {
		t.Fatalf("crypto/rand is not the global PRNG, got %v", diags)
	}
}

func TestSortDiagnosticsDeterministic(t *testing.T) {
	mk := func(file string, line, col int, a, m string) Diagnostic {
		return Diagnostic{
			Pos:      token.Position{Filename: file, Line: line, Column: col},
			Analyzer: a, Message: m,
		}
	}
	in := []Diagnostic{
		mk("b.go", 1, 1, "mapiter", "x"),
		mk("a.go", 9, 1, "walltime", "y"),
		mk("a.go", 2, 5, "mapiter", "z"),
		mk("a.go", 2, 5, "mapiter", "a"),
		mk("a.go", 2, 1, "unstablesort", "w"),
	}
	SortDiagnostics(in)
	var got []string
	for _, d := range in {
		got = append(got, fmt.Sprintf("%s:%d:%d:%s:%s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message))
	}
	want := []string{
		"a.go:2:1:unstablesort:w",
		"a.go:2:5:mapiter:a",
		"a.go:2:5:mapiter:z",
		"a.go:9:1:walltime:y",
		"b.go:1:1:mapiter:x",
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order[%d] = %s, want %s (full: %v)", i, got[i], want[i], got)
		}
	}
}

func TestPackageDirsSkipsTestdata(t *testing.T) {
	dirs, err := PackageDirs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, d := range dirs {
		if seen[d] {
			t.Errorf("PackageDirs lists %s twice", d)
		}
		seen[d] = true
		if strings.Contains(filepath.ToSlash(d), "testdata") {
			t.Errorf("PackageDirs must skip testdata, got %s", d)
		}
	}
	// internal/trace is split by its colfmt subdirectory in walk order;
	// it must still be listed, once.
	for _, want := range []string{"internal/lint", "internal/trace", "internal/trace/colfmt", "cmd/tracelint"} {
		if !seen[filepath.Join("..", "..", want)] {
			t.Errorf("PackageDirs misses %s (got %v)", want, dirs)
		}
	}
}

// TestRepoIsLintClean runs the full suite over every package directory
// of the module, in-package tests included — the same set `make lint`
// gates — so `go test` alone already enforces the determinism contract
// on the tree.
func TestRepoIsLintClean(t *testing.T) {
	root := filepath.Join("..", "..")
	dirs, err := PackageDirs(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) < 30 {
		t.Fatalf("suspiciously few package directories under the module root: %d", len(dirs))
	}
	loader := NewLoader(root)
	tests := 0
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			t.Errorf("load %s: %v", dir, err)
			continue
		}
		tests += len(pkg.TestFiles)
		if len(pkg.TypeErrors) > 0 {
			t.Errorf("%s: type errors weaken the analyzers: %v", dir, pkg.TypeErrors[0])
		}
		for _, d := range RunPkg(pkg, All()) {
			t.Errorf("%s", d)
		}
	}
	if tests < 50 {
		t.Fatalf("suspiciously few in-package test files: %d", tests)
	}
}
