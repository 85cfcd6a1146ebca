// Command tracelint runs tracescope's determinism-and-invariant
// static-analysis suite (internal/lint) over the tree: six analyzers,
// each of which alone catches a planted bug the tests miss (DESIGN.md
// §7). Concurrency is go vet's and the race detector's job, not this
// tool's.
//
// Usage:
//
//	tracelint [-analyzers] [-metricsdoc file] [dir | dir/... ...]
//
// Each argument is a package directory, or a directory suffixed with
// /... for every package directory beneath it; the default is ./... —
// directories named testdata and vendor and hidden entries are skipped.
// Every package is type-checked together with its in-package _test.go
// files (stdlib go/types; module imports resolved by the loader, the
// standard library from export data) and analysed whole. Type-check
// errors never fail the run, but parse errors exit 2.
//
// Findings go to stdout as file:line:col: analyzer: message lines in
// deterministic order; the exit status is 1 when there are findings, 2
// on usage or parse errors, 0 on a clean tree. -metricsdoc renders the
// metric-name registry the obsreg analyzer harvests from the packages
// as a markdown table to the named file ("-" for stdout) — the source
// of the committed METRICS.md.
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
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"tracescope/internal/diag"
	"tracescope/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(argv []string) int {
	fs := flag.NewFlagSet("tracelint", flag.ContinueOnError)
	list := fs.Bool("analyzers", false, "list the analyzers and exit")
	metricsDoc := fs.String("metricsdoc", "", "write the harvested metric registry as markdown to this file (- for stdout)")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: tracelint [-analyzers] [-metricsdoc file] [dir | dir/... ...]\n")
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
	dirs, err := resolve(args)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracelint: %v\n", err)
		return 2
	}

	var (
		diags    []lint.Diagnostic
		loadFail bool
		loaded   []*lint.Package
		cwd, _   = os.Getwd()
		loader   = lint.NewLoader(dirs[0])
	)
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracelint: %v\n", err)
			loadFail = true
			continue
		}
		loaded = append(loaded, pkg)
		for _, d := range lint.RunPkg(pkg, analyzers) {
			if rel, err := filepath.Rel(cwd, d.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
				d.Pos.Filename = rel
			}
			diags = append(diags, d)
		}
	}
	lint.SortDiagnostics(diags)

	if *metricsDoc != "" {
		if err := writeTo(*metricsDoc, func(w *os.File) error {
			return lint.WriteMetricsDoc(w, lint.CollectMetrics(loaded))
		}); err != nil {
			fmt.Fprintf(os.Stderr, "tracelint: -metricsdoc: %v\n", err)
			return 2
		}
	}

	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "tracelint: %d finding(s)\n", len(diags))
	}
	return diag.ExitCode(len(diags), loadFail)
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

// resolve expands the arguments into the package directories to
// analyse, each once: "dir/..." walks recursively, a directory is taken
// as-is, anything else is an error.
func resolve(args []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	for _, arg := range args {
		found := []string{arg}
		if root, ok := strings.CutSuffix(arg, "/..."); ok {
			if root == "" {
				root = "."
			}
			var err error
			if found, err = lint.PackageDirs(root); err != nil {
				return nil, err
			}
		} else if info, err := os.Stat(arg); err != nil {
			return nil, err
		} else if !info.IsDir() {
			return nil, fmt.Errorf("%s is not a directory", arg)
		}
		for _, d := range found {
			if abs, err := filepath.Abs(d); err == nil && !seen[abs] {
				seen[abs] = true
				dirs = append(dirs, abs)
			}
		}
	}
	if len(dirs) == 0 {
		return nil, fmt.Errorf("no packages under %s", strings.Join(args, " "))
	}
	return dirs, nil
}
