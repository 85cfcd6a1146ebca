// Command tracevet runs the corpus/trace semantic verifier
// (internal/tracevet) over corpus directories.
//
// Usage:
//
//	tracevet [-json] [-sarif file] [-rules r1,r2] [-workers n] [-semantic] [-rulelist] dir ...
//
// Each argument is a corpus directory (a corpus.index plus its stream
// files). Findings go to stdout as file:line: severity: rule: message
// lines (or a JSON array with -json) in deterministic order; the file is
// the corpus artifact the finding is about (corpus.index, corpus.intern,
// a stream file) prefixed with the corpus directory, and the line is the
// 1-based record, event, or instance ordinal inside it. The report is
// byte-identical at any -workers value.
//
// The exit status is 1 when there are findings of any severity, 2 on
// usage errors or unreadable corpora, 0 on a clean corpus. A corpus
// whose findings are all notes is damaged but recoverable: the summary
// line says so and names the index byte offset to truncate to.
//
// -rules restricts the run to a comma-separated subset of the rules
// (-rulelist lists them). -semantic adds the analysis-layer conservation
// cross-checks, which decode every stream and build wait graphs — the
// slowest rules, off by default. -sarif also writes a SARIF 2.1.0 log to
// the named file ("-" for stdout) for CI upload.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"tracescope/internal/diag"
	"tracescope/internal/tracevet"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(argv []string) int {
	fs := flag.NewFlagSet("tracevet", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array")
	sarifOut := fs.String("sarif", "", "also write findings as a SARIF 2.1.0 log to this file (- for stdout)")
	rulesCSV := fs.String("rules", "", "run only these comma-separated rules (default all)")
	workers := fs.Int("workers", 0, "per-stream verification parallelism (0 = GOMAXPROCS)")
	semantic := fs.Bool("semantic", false, "also run the analysis-layer conservation cross-checks (slow)")
	list := fs.Bool("rulelist", false, "list the rules and exit")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: tracevet [-json] [-sarif file] [-rules r1,r2] [-workers n] [-semantic] dir ...\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if *list {
		for _, r := range tracevet.Rules() {
			fmt.Printf("%-16s %s\n", r.Name, r.Doc)
		}
		return 0
	}
	rules, err := tracevet.ParseRules(*rulesCSV)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracevet: %v\n", err)
		return 2
	}
	dirs := fs.Args()
	if len(dirs) == 0 {
		fs.Usage()
		return 2
	}

	opts := tracevet.Options{Workers: *workers, Rules: rules, Semantic: *semantic}
	var (
		diags       []diag.Diagnostic
		streams     int
		opFailed    bool
		recoverable = true
	)
	for _, dir := range dirs {
		rep, err := tracevet.VetDir(dir, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracevet: %s: %v\n", dir, err)
			opFailed = true
			continue
		}
		for _, d := range rep.Diags {
			// Reports name artifacts relative to their corpus; prefix the
			// directory so multi-corpus runs stay unambiguous.
			d.Pos.Filename = filepath.Join(dir, d.Pos.Filename)
			diags = append(diags, d)
		}
		streams += rep.Streams
		if rep.Findings() > 0 && !rep.Recoverable {
			recoverable = false
		}
		if rep.TailOffset >= 0 {
			fmt.Fprintf(os.Stderr, "tracevet: %s: torn index tail; valid prefix is %d bytes\n", dir, rep.TailOffset)
		}
	}

	if *sarifOut != "" {
		if err := writeTo(*sarifOut, func(w *os.File) error {
			return diag.WriteSARIF(w, "tracevet", diags, tracevet.RuleDocs())
		}); err != nil {
			fmt.Fprintf(os.Stderr, "tracevet: -sarif: %v\n", err)
			return 2
		}
	}

	if *jsonOut {
		if err := diag.WriteJSON(os.Stdout, diags); err != nil {
			fmt.Fprintf(os.Stderr, "tracevet: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Printf("%s:%d: %s: %s: %s\n", d.Pos.Filename, d.Pos.Line, d.Severity.Level(), d.Analyzer, d.Message)
		}
		if len(diags) > 0 {
			state := "corrupt"
			if recoverable {
				state = "recoverable"
			}
			fmt.Fprintf(os.Stderr, "tracevet: %d finding(s) over %d stream(s): %s\n", len(diags), streams, state)
		}
	}
	return diag.ExitCode(len(diags), opFailed)
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
