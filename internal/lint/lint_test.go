package lint

import (
	"fmt"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestMapIterTestdata, TestWallTimeTestdata and TestUnstableSortTestdata
// are the self-check required of every analyzer: one positive and one
// negative fixture, exercised through the same // want harness CI runs.
func TestMapIterTestdata(t *testing.T) {
	RunTestdata(t, filepath.Join("testdata", "mapiter"), []*Analyzer{MapIter})
}

func TestWallTimeTestdata(t *testing.T) {
	RunTestdata(t, filepath.Join("testdata", "walltime"), []*Analyzer{WallTime})
}

func TestUnstableSortTestdata(t *testing.T) {
	RunTestdata(t, filepath.Join("testdata", "unstablesort"), []*Analyzer{UnstableSort})
}

// The type-aware analyzers load their fixture directories as real
// packages: imports resolved, types checked, cross-file taint visible.
func TestErrDropTestdata(t *testing.T) {
	RunTestdataPackage(t, filepath.Join("testdata", "errdrop"), []*Analyzer{ErrDrop})
}

func TestSpanEndTestdata(t *testing.T) {
	RunTestdataPackage(t, filepath.Join("testdata", "spanend"), []*Analyzer{SpanEnd})
}

func TestDeterTaintTestdata(t *testing.T) {
	RunTestdataPackage(t, filepath.Join("testdata", "detertaint"), []*Analyzer{DeterTaint})
}

func TestObsRegTestdata(t *testing.T) {
	RunTestdataPackage(t, filepath.Join("testdata", "obsreg"), []*Analyzer{ObsReg})
}

// parse is a helper wrapping ParseFile for inline sources.
func parse(t *testing.T, filename, src string) *File {
	t.Helper()
	f, err := ParseFile(token.NewFileSet(), filename, src)
	if err != nil {
		t.Fatalf("parse %s: %v", filename, err)
	}
	return f
}

func TestSuppressionSameLine(t *testing.T) {
	src := `package p

import "sort"

func f(xs []int) {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] }) //lint:ignore unstablesort elements are unique
}
`
	f := parse(t, filepath.Join("internal", "p", "p.go"), src)
	if diags := Run(f, All()); len(diags) != 0 {
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
	diags := Run(f, All())
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
	if diags := Run(f, All()); len(diags) != 0 {
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
	diags := Run(f, nil)
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
	if diags := Run(f, []*Analyzer{WallTime}); len(diags) != 0 {
		t.Fatalf("walltime must not fire outside internal/, got %v", diags)
	}
	// Same source under internal/: flagged.
	f = parse(t, filepath.Join("internal", "core", "x.go"), src)
	if diags := Run(f, []*Analyzer{WallTime}); len(diags) != 1 {
		t.Fatalf("walltime must fire under internal/, got %v", diags)
	}
	// Test files are exempt (benchmarks time themselves).
	f = parse(t, filepath.Join("internal", "core", "x_test.go"), src)
	if diags := Run(f, []*Analyzer{WallTime}); len(diags) != 0 {
		t.Fatalf("walltime must not fire in _test.go, got %v", diags)
	}
}

func TestImportNameResolvesRenames(t *testing.T) {
	src := `package p

import (
	r "math/rand"
	"time"
)

var _ = time.Time{}

func f(n int) int { return r.Intn(n) }
`
	f := parse(t, filepath.Join("internal", "p", "p.go"), src)
	if got := f.ImportName("math/rand"); got != "r" {
		t.Fatalf("ImportName(math/rand) = %q, want r", got)
	}
	diags := Run(f, []*Analyzer{WallTime})
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
	if diags := Run(f, []*Analyzer{WallTime}); len(diags) != 0 {
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

func TestFilesInSkipsTestdataAndTests(t *testing.T) {
	files, err := FilesIn(".", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("FilesIn found nothing")
	}
	for _, f := range files {
		if strings.Contains(f, "testdata") {
			t.Errorf("FilesIn must skip testdata, got %s", f)
		}
		if strings.HasSuffix(f, "_test.go") {
			t.Errorf("FilesIn must skip _test.go by default, got %s", f)
		}
	}
	withTests, err := FilesIn(".", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(withTests) <= len(files) {
		t.Error("FilesIn(tests=true) must include test files")
	}
}

// TestRepoIsLintClean runs the full suite over the module's non-test
// sources — the same set `make lint` gates — so `go test` alone already
// enforces the determinism contract on the tree. Packages under
// internal/ are loaded whole and type-checked, exactly as the CLI does,
// so the type-aware analyzers (errdrop, spanend, detertaint, obsreg)
// run armed; everything else is checked per file at the syntactic
// scope.
func TestRepoIsLintClean(t *testing.T) {
	root := filepath.Join("..", "..")
	files, err := FilesIn(root, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 20 {
		t.Fatalf("suspiciously few files under module root: %d", len(files))
	}
	var (
		typedDirs []string
		seenDir   = map[string]bool{}
		plain     []string
	)
	for _, path := range files {
		dir := filepath.Dir(path)
		if strings.Contains(filepath.ToSlash(dir), "/internal/") || filepath.Base(dir) == "internal" {
			if !seenDir[dir] {
				seenDir[dir] = true
				typedDirs = append(typedDirs, dir)
			}
			continue
		}
		plain = append(plain, path)
	}
	if len(typedDirs) < 10 {
		t.Fatalf("suspiciously few internal/ packages: %d", len(typedDirs))
	}

	loader := NewLoader(root)
	for _, dir := range typedDirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			t.Errorf("load %s: %v", dir, err)
			continue
		}
		if len(pkg.TypeErrors) > 0 {
			t.Errorf("%s: type errors weaken the typed analyzers: %v", dir, pkg.TypeErrors[0])
		}
		for _, d := range RunPkg(pkg, All()) {
			t.Errorf("%s", d)
		}
	}

	fset := token.NewFileSet()
	for _, path := range plain {
		f, err := ParseFile(fset, path, nil)
		if err != nil {
			t.Errorf("parse %s: %v", path, err)
			continue
		}
		for _, d := range Run(f, All()) {
			t.Errorf("%s", d)
		}
	}
}
