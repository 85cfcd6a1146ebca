// Command tracelint runs tracescope's determinism-and-invariant
// static-analysis suite (internal/lint) over the tree: seven analyzers,
// each of which has caught a bug here or guards an invariant the tests
// only sample (DESIGN.md §7). Concurrency is go vet's and the race
// detector's job, not this tool's.
//
// Usage:
//
//	tracelint [-json] [-tests] [-fix] [-pkg name] [-sarif file] [-metricsdoc file] [path ...]
//
// Each path is a directory (analyzed recursively when suffixed with
// /...), a single .go file, or defaults to ./... — dirs named testdata
// and vendor and hidden entries are skipped. Directories under
// internal/ are loaded as whole packages and type-checked (stdlib
// go/types; intra-module imports resolved by the loader), which arms
// the type-aware analyzers and the package-scoped taint analysis;
// everything else is analyzed per file at the syntactic scope.
// Type-check errors never fail the run — analyzers degrade to syntax —
// but parse errors exit 2, exactly as before.
//
// Findings go to stdout as file:line:col: analyzer: message lines (or a
// JSON array with -json) in deterministic order; the exit status is 1
// when there are findings, 2 on usage or parse errors, 0 on a clean
// tree. -pkg restricts the run to packages matching the given name (a
// package name, a directory base name, or an import-path suffix). -fix
// applies the safe rewrites some analyzers attach (sort.Slice →
// sort.SliceStable on single-key comparators; defer sp.End() insertion
// for never-ended spans) and reports only what remains.
//
// -sarif writes the findings (after -fix, when given) as a SARIF 2.1.0
// log to the named file ("-" for stdout) in addition to the normal
// output; CI uploads it so code review shows findings inline. -metricsdoc
// renders the metric-name registry the obsreg analyzer harvests from the
// type-checked packages as a markdown table to the named file ("-" for
// stdout) — the source of the committed METRICS.md.
//
// Findings are silenced per-site with
//
//	//lint:ignore <analyzer>[,<analyzer>] <reason>
//
// on the flagged line or the line above it; the reason is mandatory,
// and every name must be one -analyzers lists (or *): a directive that
// names anything else is itself a finding.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"strings"

	"tracescope/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// finding is the JSON shape of one diagnostic.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
	Fixable  bool   `json:"fixable,omitempty"`
}

func run(argv []string) int {
	fs := flag.NewFlagSet("tracelint", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array")
	tests := fs.Bool("tests", false, "also analyze _test.go files")
	list := fs.Bool("analyzers", false, "list the analyzers and exit")
	fix := fs.Bool("fix", false, "apply the safe rewrites analyzers attach and report what remains")
	pkgFilter := fs.String("pkg", "", "restrict to packages matching this name (package name, dir base, or import-path suffix)")
	sarifOut := fs.String("sarif", "", "also write findings as a SARIF 2.1.0 log to this file (- for stdout)")
	metricsDoc := fs.String("metricsdoc", "", "write the harvested metric registry as markdown to this file (- for stdout)")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: tracelint [-json] [-tests] [-fix] [-pkg name] [-sarif file] [-metricsdoc file] [path ...]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	args := fs.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}

	files, err := resolve(args, *tests)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracelint: %v\n", err)
		return 2
	}

	// Partition into package-loaded directories (under internal/ — the
	// module's own code, where intra-module imports resolve and typed
	// analysis pays off) and stand-alone files (cmd/, workload/, ...,
	// analyzed syntactically as before).
	var (
		typedDirs []string
		seenDir   = map[string]bool{}
		plain     []string
		requested = map[string]bool{}
	)
	for _, path := range files {
		// Index by absolute path: a package reached first through
		// another package's import is cached under its absolute
		// directory, so its findings carry absolute filenames.
		requested[absPath(path)] = true
		dir := filepath.Dir(path)
		if underInternal(dir) {
			if !seenDir[dir] {
				seenDir[dir] = true
				typedDirs = append(typedDirs, dir)
			}
			continue
		}
		plain = append(plain, path)
	}

	var (
		diags     []lint.Diagnostic
		parseFail bool
		loaded    []*lint.Package
	)

	if len(typedDirs) > 0 {
		loader := lint.NewLoader(typedDirs[0])
		loader.Tests = *tests
		for _, dir := range typedDirs {
			// The -pkg filter is applied after loading: the package name
			// is only known from the parsed sources.
			pkg, err := loader.LoadDir(dir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "tracelint: %v\n", err)
				parseFail = true
				continue
			}
			if !pkgMatch(*pkgFilter, dir, pkg.Name, pkg.Path) {
				continue
			}
			loaded = append(loaded, pkg)
			for _, d := range lint.RunPkg(pkg, analyzers) {
				// RunPkg covers the whole package; keep only what was
				// asked for (a single-file argument must not surface its
				// siblings' findings). Filenames may be absolute or
				// relative depending on how the package was first
				// reached, so report them as given but filter absolutely.
				if requested[absPath(d.Pos.Filename)] {
					d.Pos.Filename = relPath(d.Pos.Filename)
					diags = append(diags, d)
				}
			}
		}
	}

	fset := token.NewFileSet()
	for _, path := range plain {
		f, err := lint.ParseFile(fset, path, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracelint: %v\n", err)
			parseFail = true
			continue
		}
		if !pkgMatch(*pkgFilter, filepath.Dir(path), f.AST.Name.Name, "") {
			continue
		}
		diags = append(diags, lint.Run(f, analyzers)...)
	}
	lint.SortDiagnostics(diags)

	if *fix {
		var fixErr bool
		diags, fixErr = applyFixes(diags)
		if fixErr {
			parseFail = true
		}
	}

	if *sarifOut != "" {
		if err := writeTo(*sarifOut, func(w *os.File) error {
			return lint.WriteSARIF(w, diags, analyzers)
		}); err != nil {
			fmt.Fprintf(os.Stderr, "tracelint: -sarif: %v\n", err)
			return 2
		}
	}
	if *metricsDoc != "" {
		if err := writeTo(*metricsDoc, func(w *os.File) error {
			return lint.WriteMetricsDoc(w, lint.CollectMetrics(loaded))
		}); err != nil {
			fmt.Fprintf(os.Stderr, "tracelint: -metricsdoc: %v\n", err)
			return 2
		}
	}

	if *jsonOut {
		out := make([]finding, 0, len(diags))
		for _, d := range diags {
			out = append(out, finding{
				File: d.Pos.Filename, Line: d.Pos.Line, Col: d.Pos.Column,
				Analyzer: d.Analyzer, Message: d.Message, Fixable: len(d.Fixes) > 0,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "tracelint: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
		if len(diags) > 0 {
			fmt.Fprintf(os.Stderr, "tracelint: %d finding(s)\n", len(diags))
		}
	}

	switch {
	case parseFail:
		return 2
	case len(diags) > 0:
		return 1
	}
	return 0
}

// writeTo opens the named file ("-" for stdout) and hands it to emit,
// closing and surfacing errors afterwards.
func writeTo(path string, emit func(*os.File) error) error {
	if path == "-" {
		return emit(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// absPath normalises a path for set membership; on failure the cleaned
// path is better than nothing.
func absPath(path string) string {
	if abs, err := filepath.Abs(path); err == nil {
		return abs
	}
	return filepath.Clean(path)
}

// relPath renders a filename relative to the working directory when it
// is underneath it, so findings read the same however the package was
// loaded.
func relPath(path string) string {
	cwd, err := os.Getwd()
	if err != nil {
		return path
	}
	rel, err := filepath.Rel(cwd, absPath(path))
	if err != nil || strings.HasPrefix(rel, "..") {
		return path
	}
	return rel
}

// underInternal reports whether the directory is part of the module's
// internal/ tree — the packages loaded whole and type-checked.
func underInternal(dir string) bool {
	for _, el := range strings.Split(filepath.ToSlash(dir), "/") {
		if el == "internal" {
			return true
		}
	}
	return false
}

// pkgMatch applies the -pkg filter: empty matches everything, else the
// filter must equal the package name or the directory base, or be a
// suffix of the import path ("internal/engine" matches
// tracescope/internal/engine).
func pkgMatch(filter, dir, pkgName, importPath string) bool {
	if filter == "" {
		return true
	}
	if pkgName != "" && filter == pkgName {
		return true
	}
	if filepath.Base(dir) == filter {
		return true
	}
	return importPath != "" && strings.HasSuffix(importPath, "/"+strings.TrimPrefix(filter, "/")) ||
		importPath == filter
}

// applyFixes rewrites every file that carries fixable findings and
// returns the findings that remain (no fix attached). The bool result
// reports I/O failures.
func applyFixes(diags []lint.Diagnostic) ([]lint.Diagnostic, bool) {
	byFile := make(map[string][]lint.Diagnostic)
	var order []string
	for _, d := range diags {
		if len(d.Fixes) == 0 {
			continue
		}
		if _, ok := byFile[d.Pos.Filename]; !ok {
			order = append(order, d.Pos.Filename)
		}
		byFile[d.Pos.Filename] = append(byFile[d.Pos.Filename], d)
	}
	failed := false
	applied := 0
	for _, path := range order {
		src, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracelint: -fix: %v\n", err)
			failed = true
			continue
		}
		fixed, n := lint.ApplyFixes(src, byFile[path])
		if n == 0 {
			continue
		}
		if err := os.WriteFile(path, fixed, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "tracelint: -fix: %v\n", err)
			failed = true
			continue
		}
		applied += n
		fmt.Fprintf(os.Stderr, "tracelint: fixed %s (%d rewrite(s))\n", path, n)
	}
	if applied > 0 {
		fmt.Fprintf(os.Stderr, "tracelint: applied %d fix(es) in %d file(s)\n", applied, len(order))
	}
	var remaining []lint.Diagnostic
	for _, d := range diags {
		if len(d.Fixes) == 0 {
			remaining = append(remaining, d)
		}
	}
	return remaining, failed
}

// resolve expands the path arguments into the sorted file list to
// analyze: "dir/..." walks recursively, a directory takes its immediate
// .go files, a file is taken as-is.
func resolve(args []string, tests bool) ([]string, error) {
	seen := make(map[string]bool)
	var files []string
	add := func(f string) {
		if !seen[f] {
			seen[f] = true
			files = append(files, f)
		}
	}
	for _, arg := range args {
		if rest, ok := strings.CutSuffix(arg, "/..."); ok {
			root := rest
			if root == "" || root == "." {
				root = "."
			}
			fs, err := lint.FilesIn(root, tests)
			if err != nil {
				return nil, err
			}
			for _, f := range fs {
				add(f)
			}
			continue
		}
		info, err := os.Stat(arg)
		if err != nil {
			return nil, err
		}
		if info.IsDir() {
			entries, err := os.ReadDir(arg)
			if err != nil {
				return nil, err
			}
			for _, e := range entries {
				name := e.Name()
				if e.IsDir() || !strings.HasSuffix(name, ".go") {
					continue
				}
				if !tests && strings.HasSuffix(name, "_test.go") {
					continue
				}
				add(filepath.Join(arg, name))
			}
			continue
		}
		add(arg)
	}
	return files, nil
}
