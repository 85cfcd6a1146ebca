// load.go is the suite's one way in: a Loader parses and type-checks one
// package directory at a time with the stdlib toolchain only (go/parser,
// go/types, go/importer — no third-party dependency). Imports of the
// surrounding module are resolved by type-checking the imported
// directory through the same loader; the standard library is read from
// the compiler's export data (go/importer's "gc" mode), not re-checked
// from $GOROOT/src. A package is analysed together with its in-package
// _test.go files, type-checked as one unit, the way `go test` builds
// it; importers see the package without its tests. External test
// packages (package foo_test) are not loaded. Results are cached, so a
// whole-tree run checks each package once for its importers and once
// more with its tests only where it has any.
//
// Parse errors fail the load (the CLI exits 2). Type errors are
// collected on Package.TypeErrors and the partially filled types.Info
// is used as far as it goes: analyzers treat "no type known" as "stay
// silent" — never flag what cannot be read.
package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Package is one parsed and type-checked package with its in-package
// tests, the unit analyzers consume.
type Package struct {
	// Dir is the absolute directory the package was loaded from.
	Dir string
	// Path is the package's import path when the directory is inside a
	// module ("tracescope/internal/engine"), else the directory itself.
	Path string
	// Name is the package name from the source files.
	Name string
	// Fset positions every file in the package (shared with the Loader).
	Fset *token.FileSet
	// Files are the package's non-test source files.
	Files []*File
	// TestFiles are the _test.go files of the same package, type-checked
	// together with Files.
	TestFiles []*File
	// Types is the type-checked package object (tests included); nil
	// when type-checking could not even start.
	Types *types.Package
	// Info holds the type-checker's facts for every file. Always
	// non-nil, but sparsely filled when TypeErrors is non-empty.
	Info *types.Info
	// TypeErrors are the problems the type checker reported. They do
	// not fail the load.
	TypeErrors []error
}

// AllFiles returns the package's files, non-test ones first, in a
// deterministic order.
func (p *Package) AllFiles() []*File {
	out := make([]*File, 0, len(p.Files)+len(p.TestFiles))
	out = append(out, p.Files...)
	return append(out, p.TestFiles...)
}

// TypeOf returns the static type of e, or nil when the type checker
// recorded none.
func (p *Package) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// ObjectOf resolves an identifier to its types.Object, or nil.
func (p *Package) ObjectOf(id *ast.Ident) types.Object { return p.Info.ObjectOf(id) }

// Loader parses and type-checks package directories, caching results so
// shared dependencies are checked once per run. Concurrent use is not
// supported.
type Loader struct {
	// Fset receives every parsed file's positions.
	Fset *token.FileSet

	moduleRoot string // directory holding go.mod; "" when not found
	modulePath string // module path from go.mod; "" when not found

	std    types.Importer            // export-data importer for the standard library
	parsed map[string]*sourceDir     // by absolute dir
	cache  map[string]*Package       // analysis units, by absolute dir
	deps   map[string]*types.Package // what importers see, by absolute dir
	stack  map[string]bool           // dirs currently importing, for cycle detection
}

// sourceDir is one directory's parsed files, split by role.
type sourceDir struct {
	name         string
	files, tests []*File
}

// NewLoader returns a loader rooted at the module containing dir (the
// nearest go.mod above it). Outside a module only the standard library
// resolves.
func NewLoader(dir string) *Loader {
	fset := token.NewFileSet()
	l := &Loader{
		Fset:   fset,
		std:    importer.ForCompiler(fset, "gc", openExport),
		parsed: make(map[string]*sourceDir),
		cache:  make(map[string]*Package),
		deps:   make(map[string]*types.Package),
		stack:  make(map[string]bool),
	}
	l.moduleRoot, l.modulePath = findModule(dir)
	return l
}

// stdExports caches, process-wide, the export data file of each
// standard-library import path ("" when go list knows none). The files
// sit in the build cache and do not change while a process runs.
var stdExports = struct {
	sync.Mutex
	files map[string]string
}{files: make(map[string]string)}

// fetchExports records the export data files of the paths not yet known,
// with one `go list -export` run for all of them: a run costs about as
// much for fifty packages as for one.
func fetchExports(paths []string) error {
	stdExports.Lock()
	defer stdExports.Unlock()
	var missing []string
	for _, p := range paths {
		if _, ok := stdExports.files[p]; !ok {
			missing = append(missing, p)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	goCmd := filepath.Join(build.Default.GOROOT, "bin", "go")
	args := append([]string{"list", "-e", "-export", "-f", "{{.ImportPath}} {{.Export}}"}, missing...)
	out, err := exec.Command(goCmd, args...).Output()
	if err != nil {
		return fmt.Errorf("lint: go list -export: %v", err)
	}
	for _, p := range missing {
		stdExports.files[p] = ""
	}
	for _, line := range strings.Split(string(out), "\n") {
		if ip, file, ok := strings.Cut(line, " "); ok && file != "" {
			stdExports.files[ip] = file
		}
	}
	return nil
}

// openExport is the standard-library importer's lookup: the export data
// of the package at path.
func openExport(path string) (io.ReadCloser, error) {
	if err := fetchExports([]string{path}); err != nil {
		return nil, err
	}
	stdExports.Lock()
	file := stdExports.files[path]
	stdExports.Unlock()
	if file == "" {
		return nil, fmt.Errorf("lint: no export data for %s", path)
	}
	return os.Open(file)
}

// prefetchExports resolves, in one go list run, the export data of every
// standard-library package the files import directly or through the
// module's own packages, so a whole-tree run does not pay one run per
// imported package. A failure here surfaces from the import that needs
// the package.
func (l *Loader) prefetchExports(files []*File) {
	seen := make(map[string]bool)
	var std []string
	var visit func(files []*File)
	visit = func(files []*File) {
		for _, f := range files {
			for _, imp := range f.AST.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil || seen[path] {
					continue
				}
				seen[path] = true
				if dir, ok := l.dirOf(path); !ok {
					std = append(std, path)
				} else if src, err := l.parse(dir); err == nil {
					visit(src.files)
				}
			}
		}
	}
	visit(files)
	_ = fetchExports(std)
}

// findModule walks up from dir to the nearest go.mod and returns its
// directory and module path.
func findModule(dir string) (root, path string) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", ""
	}
	for {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest)
				}
			}
			return d, ""
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", ""
		}
		d = parent
	}
}

// importPath maps an absolute dir to its import path within the module,
// or "" when the dir is outside the module.
func (l *Loader) importPath(dir string) string {
	if l.moduleRoot == "" || l.modulePath == "" {
		return ""
	}
	rel, err := filepath.Rel(l.moduleRoot, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return ""
	}
	if rel == "." {
		return l.modulePath
	}
	return l.modulePath + "/" + filepath.ToSlash(rel)
}

// dirOf maps a module-internal import path back to its directory, and
// reports whether the path is module-internal at all.
func (l *Loader) dirOf(importPath string) (string, bool) {
	if l.moduleRoot == "" || l.modulePath == "" {
		return "", false
	}
	if importPath == l.modulePath {
		return l.moduleRoot, true
	}
	rest, ok := strings.CutPrefix(importPath, l.modulePath+"/")
	if !ok {
		return "", false
	}
	return filepath.Join(l.moduleRoot, filepath.FromSlash(rest)), true
}

// Import implements types.Importer over the loader: the surrounding
// module's packages are type-checked from source (without their tests)
// through the same caches, everything else comes from export data.
func (l *Loader) Import(path string) (*types.Package, error) {
	dir, ok := l.dirOf(path)
	if !ok {
		return l.std.Import(path)
	}
	if tp := l.deps[dir]; tp != nil {
		return tp, nil
	}
	if l.stack[dir] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.stack[dir] = true
	defer delete(l.stack, dir)

	src, err := l.parse(dir)
	if err != nil {
		return nil, err
	}
	var tp *types.Package
	if len(src.tests) == 0 {
		// Without tests the analysis unit is exactly what importers see.
		pkg, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		tp = pkg.Types
	} else {
		tp, _ = l.check(path, src.files, nil)
	}
	if tp == nil {
		return nil, fmt.Errorf("lint: %s did not type-check", path)
	}
	l.deps[dir] = tp
	return tp, nil
}

// LoadDir parses and type-checks the package in dir (the .go files
// directly inside it) together with its in-package tests. The result
// is cached. Parse failures and directories without non-test .go files
// return an error; type-check failures do not (see Package.TypeErrors).
func (l *Loader) LoadDir(dir string) (*Package, error) {
	key, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if p, ok := l.cache[key]; ok {
		return p, nil
	}
	src, err := l.parse(key)
	if err != nil {
		return nil, err
	}
	pkg := &Package{
		Dir:       key,
		Path:      l.importPath(key),
		Name:      src.name,
		Fset:      l.Fset,
		Files:     src.files,
		TestFiles: src.tests,
		Info:      newInfo(),
	}
	if pkg.Path == "" {
		pkg.Path = key
	}
	for _, f := range pkg.AllFiles() {
		f.Pkg = pkg
	}
	l.prefetchExports(pkg.AllFiles())
	pkg.Types, pkg.TypeErrors = l.check(pkg.Path, pkg.AllFiles(), pkg.Info)
	l.cache[key] = pkg
	return pkg, nil
}

// check type-checks files as the package at path, collecting every type
// error instead of stopping at the first.
func (l *Loader) check(path string, files []*File, info *types.Info) (*types.Package, []error) {
	var errs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { errs = append(errs, err) },
		// Keep checking past errors: a sparse Info still serves the
		// analyzers that can use it.
		DisableUnusedImportCheck: true,
	}
	asts := make([]*ast.File, len(files))
	for i, f := range files {
		asts[i] = f.AST
	}
	tp, err := conf.Check(path, l.Fset, asts, info)
	if err != nil && len(errs) == 0 {
		errs = append(errs, err)
	}
	return tp, errs
}

// parse reads and parses the .go files of an absolute dir once, split
// into the package's files and its in-package tests.
func (l *Loader) parse(dir string) (*sourceDir, error) {
	if src, ok := l.parsed[dir]; ok {
		return src, nil
	}
	names, err := sourceFileNames(dir)
	if err != nil {
		return nil, err
	}
	src := &sourceDir{}
	for _, name := range names {
		path := filepath.Join(dir, name)
		astf, err := parser.ParseFile(l.Fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		f := &File{Fset: l.Fset, AST: astf, Filename: path}
		switch {
		case !strings.HasSuffix(name, "_test.go"):
			src.files = append(src.files, f)
		case !strings.HasSuffix(astf.Name.Name, "_test"):
			src.tests = append(src.tests, f)
		}
	}
	if len(src.files) == 0 {
		return nil, fmt.Errorf("lint: no non-test .go files in %s", dir)
	}
	src.name = src.files[0].AST.Name.Name
	for _, files := range [][]*File{src.files, src.tests} {
		for _, f := range files {
			if f.AST.Name.Name != src.name {
				return nil, fmt.Errorf("lint: %s holds two packages, %s and %s",
					dir, src.name, f.AST.Name.Name)
			}
		}
	}
	l.parsed[dir] = src
	return src, nil
}

// sourceFileNames lists the .go files directly in dir, skipping hidden
// and underscore-prefixed files, test files included — parse separates
// them.
func sourceFileNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !isSourceName(name) {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// isSourceName reports whether a file name is a Go source the suite
// reads: .go, and neither hidden nor underscore-prefixed.
func isSourceName(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_")
}

// PackageDirs lists the package directories under root, recursively and
// sorted: every directory holding a non-test .go file, skipping
// testdata, vendor, hidden and underscore-prefixed directories. Shared
// by the CLI and the self-check tests so both walk the identical set.
func PackageDirs(root string) ([]string, error) {
	var dirs []string
	seen := make(map[string]bool)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		dir := filepath.Dir(path)
		if isSourceName(name) && !strings.HasSuffix(name, "_test.go") && !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// newInfo allocates a fully mapped types.Info, so analyzers can consult
// any fact class without nil checks on the maps themselves.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}
