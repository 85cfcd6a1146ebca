package lint

import (
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadDirTypesOwnModule proves the loader's central promise: a
// package of this module type-checks with intra-module imports resolved
// through the loader itself and stdlib imports through export data.
func TestLoadDirTypesOwnModule(t *testing.T) {
	l := NewLoader(".")
	pkg, err := l.LoadDir(filepath.Join("..", "engine"))
	if err != nil {
		t.Fatalf("LoadDir(internal/engine): %v", err)
	}
	if len(pkg.TypeErrors) != 0 {
		t.Fatalf("internal/engine must type-check cleanly, got: %v", pkg.TypeErrors)
	}
	if pkg.Name != "engine" {
		t.Fatalf("package name = %q, want engine", pkg.Name)
	}
	if pkg.Path != "tracescope/internal/engine" {
		t.Fatalf("import path = %q, want tracescope/internal/engine", pkg.Path)
	}
	// The loader must have resolved the module-internal obs import to a
	// real type-checked package, not a stub.
	var sawObs bool
	for _, imp := range pkg.Types.Imports() {
		if imp.Path() == "tracescope/internal/obs" {
			sawObs = true
			if obj := imp.Scope().Lookup("Recorder"); obj == nil {
				t.Error("obs.Recorder not found through the module importer")
			}
		}
	}
	if !sawObs {
		t.Error("tracescope/internal/obs not among engine's imports")
	}
	// Type facts must be attached to the files.
	if len(pkg.Files) == 0 || pkg.Files[0].Pkg != pkg {
		t.Fatal("files must point back at their package")
	}
	if len(pkg.Info.Defs) == 0 {
		t.Fatal("types.Info.Defs empty — type-checking recorded nothing")
	}
}

// TestLoadDirCaches checks a second load returns the cached package, so
// whole-tree runs type-check shared dependencies once.
func TestLoadDirCaches(t *testing.T) {
	l := NewLoader(".")
	a, err := l.LoadDir(filepath.Join("..", "obs"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := l.LoadDir(filepath.Join("..", "obs"))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("LoadDir must cache by directory")
	}
}

// TestLoadDirTestFiles checks _test.go handling: in-package test files
// are loaded and type-checked with the package, and external _test
// packages are skipped.
func TestLoadDirTestFiles(t *testing.T) {
	pkg, err := NewLoader(".").LoadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.TypeErrors) != 0 {
		t.Fatalf("internal/lint with its tests must type-check cleanly, got: %v", pkg.TypeErrors)
	}
	if len(pkg.TestFiles) == 0 {
		t.Fatal("the package's _test.go files must be loaded")
	}
	for _, f := range pkg.TestFiles {
		if !strings.HasSuffix(f.Filename, "_test.go") {
			t.Errorf("non-test file %s in TestFiles", f.Filename)
		}
	}
	if pkg.Types.Scope().Lookup("TestLoadDirTestFiles") == nil {
		t.Error("test declarations must be type-checked with the package")
	}

	dir := t.TempDir()
	writeFile(t, dir, "p.go", "package p\n")
	writeFile(t, dir, "p_test.go", "package p\n\nfunc helper() {}\n")
	writeFile(t, dir, "x_test.go", "package p_test\n\nfunc other() {}\n")
	pkg, err = NewLoader(dir).LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.TestFiles) != 1 || filepath.Base(pkg.TestFiles[0].Filename) != "p_test.go" {
		t.Fatalf("want only the in-package test file, got %d", len(pkg.TestFiles))
	}
}

// TestLoadDirTypeErrorsDoNotFail: a package with a type error still
// loads, reports the error on TypeErrors, and keeps partial type facts.
func TestLoadDirTypeErrorsDoNotFail(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "broken.go", `package broken

func f() int { return undefinedIdent }

func g() string { return "fine" }
`)
	l := NewLoader(dir)
	pkg, err := l.LoadDir(dir)
	if err != nil {
		t.Fatalf("type errors must not fail the load: %v", err)
	}
	if len(pkg.TypeErrors) == 0 {
		t.Fatal("expected a recorded type error")
	}
	if len(pkg.Info.Defs) == 0 {
		t.Fatal("partial type info must survive type errors")
	}
}

// TestLoadDirParseErrorFails: syntax errors do fail the load — the CLI
// keeps its exit-2 contract.
func TestLoadDirParseErrorFails(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "bad.go", "package bad\nfunc {")
	l := NewLoader(dir)
	if _, err := l.LoadDir(dir); err == nil {
		t.Fatal("parse error must fail LoadDir")
	}
}

// TestLoaderStdlibImport: the stdlib resolves through export data
// (sync.Mutex must be a struct with state).
func TestLoaderStdlibImport(t *testing.T) {
	l := NewLoader(".")
	pkg, err := l.Import("sync")
	if err != nil {
		t.Fatalf("import sync: %v", err)
	}
	obj := pkg.Scope().Lookup("Mutex")
	if obj == nil {
		t.Fatal("sync.Mutex not found")
	}
	if _, ok := obj.Type().Underlying().(*types.Struct); !ok {
		t.Fatalf("sync.Mutex underlying = %T, want struct", obj.Type().Underlying())
	}
}

// writeFile writes one fixture file into dir.
func writeFile(t *testing.T, dir, name, src string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
}
