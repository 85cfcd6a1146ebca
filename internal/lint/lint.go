// Package lint is tracescope's determinism-and-invariant static-analysis
// suite. The analysis engine promises bit-for-bit identical output at any
// worker count and cache limit; that invariant survives only while the
// code avoids a handful of patterns Go makes easy to write — ranging over
// a map straight into ordered output, ordering by wall-clock time, or
// unstable sorts with ambiguous comparators. The analyzers here turn
// those conventions into machine-checked properties.
//
// The framework is deliberately small and zero-dependency (stdlib
// go/ast, go/parser, go/token, go/types, go/importer only). There is one
// path: a Loader parses and type-checks each package directory together
// with its in-package _test.go files (load.go), and every analyzer sees
// the whole type-checked package and its shared *types.Info. Findings
// are silenced per-site with
//
//	//lint:ignore <analyzer>[,<analyzer>] <reason>
//
// placed on the flagged line or on the line directly above it. The
// reason is mandatory; a suppression without one is itself a finding,
// and so is one naming an analyzer that is not in All().
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"tracescope/internal/diag"
)

// Diagnostic is one finding at one source position. The type lives in
// internal/diag — shared with tracevet, the corpus verifier; every
// finding this suite reports keeps the zero Severity, as tracelint's
// severity signal is its exit status, not a per-finding ranking.
type Diagnostic = diag.Diagnostic

// File is one parsed, type-checked source file handed to analyzers.
type File struct {
	Fset     *token.FileSet
	AST      *ast.File
	Filename string
	// Pkg points back to the package the file was type-checked with.
	Pkg *Package
}

// Position resolves a token position within the file.
func (f *File) Position(p token.Pos) token.Position { return f.Fset.Position(p) }

// Diag constructs a diagnostic for the analyzer at the given position.
func (f *File) Diag(name string, p token.Pos, format string, args ...interface{}) Diagnostic {
	return Diagnostic{Pos: f.Position(p), Analyzer: name, Message: fmt.Sprintf(format, args...)}
}

// IsPkgIdent reports whether id resolves to the import of the package
// at path, however the import is named — a local variable shadowing
// the import name does not count.
func (f *File) IsPkgIdent(id *ast.Ident, path string) bool {
	pn, ok := f.Pkg.ObjectOf(id).(*types.PkgName)
	return ok && pn.Imported().Path() == path
}

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name is the identifier used in diagnostics and suppressions.
	Name string
	// Doc is a one-line description for -analyzers listings.
	Doc string
	// Run reports the analyzer's findings for a loaded package.
	Run func(p *Package) []Diagnostic
}

// perFile lifts a check of one file into a package analyzer that runs it
// over every file, in-package tests included.
func perFile(check func(f *File) []Diagnostic) func(p *Package) []Diagnostic {
	return func(p *Package) []Diagnostic {
		var diags []Diagnostic
		for _, f := range p.AllFiles() {
			diags = append(diags, check(f)...)
		}
		return diags
	}
}

// All returns the full analyzer suite in a fixed order.
func All() []*Analyzer {
	return []*Analyzer{
		MapIter, WallTime, UnstableSort, SpanEnd, ErrDrop, ObsReg,
	}
}

// isAnalyzer reports whether name is one of All()'s analyzers.
func isAnalyzer(name string) bool {
	for _, a := range All() {
		if a.Name == name {
			return true
		}
	}
	return false
}

// RunPkg executes the analyzers over the package with suppressions
// gathered from all its files, adds findings for malformed suppression
// comments, and returns the result in deterministic order.
func RunPkg(p *Package, analyzers []*Analyzer) []Diagnostic {
	var (
		diags []Diagnostic
		sups  suppressionSet
	)
	for _, a := range analyzers {
		diags = append(diags, a.Run(p)...)
	}
	for _, f := range p.AllFiles() {
		fileSups, malformed := suppressions(f)
		sups = append(sups, fileSups...)
		diags = append(diags, malformed...)
	}
	out := diags[:0]
	for _, d := range diags {
		if !sups.covers(d) {
			out = append(out, d)
		}
	}
	SortDiagnostics(out)
	return out
}

// SortDiagnostics orders findings by file, line, column, analyzer, and
// message — the suite's own output must be deterministic.
func SortDiagnostics(ds []Diagnostic) { diag.Sort(ds) }

// ignorePrefix introduces a suppression comment. The directive form (no
// space after //) matches the convention of staticcheck and friends.
const ignorePrefix = "lint:ignore"

// suppression silences the named analyzers ("*" for all) on the comment's
// line and on the line directly below it, covering both end-of-line and
// stand-alone-line placement.
type suppression struct {
	file      string
	line      int
	analyzers map[string]bool
}

type suppressionSet []suppression

func (ss suppressionSet) covers(d Diagnostic) bool {
	for _, s := range ss {
		if s.file != d.Pos.Filename {
			continue
		}
		if d.Pos.Line != s.line && d.Pos.Line != s.line+1 {
			continue
		}
		if s.analyzers["*"] || s.analyzers[d.Analyzer] {
			return true
		}
	}
	return false
}

// suppressions extracts //lint:ignore directives from the file. Malformed
// directives (missing analyzer list or missing reason) and directives
// naming an analyzer that is not in All() — whatever subset the caller
// is running — are returned as findings of the pseudo-analyzer "ignore"
// so they cannot silently rot or outlive the analyzer they silenced.
func suppressions(f *File) (suppressionSet, []Diagnostic) {
	var (
		sups      suppressionSet
		malformed []Diagnostic
	)
	for _, cg := range f.AST.Comments {
		for _, c := range cg.List {
			text, ok := directiveText(c.Text)
			if !ok {
				continue
			}
			fields := strings.Fields(text)
			if len(fields) < 2 {
				malformed = append(malformed, f.Diag("ignore", c.Pos(),
					"malformed suppression: want //lint:ignore <analyzer>[,<analyzer>] <reason>"))
				continue
			}
			names := make(map[string]bool)
			for _, n := range strings.Split(fields[0], ",") {
				if n == "" {
					continue
				}
				if n != "*" && !isAnalyzer(n) {
					malformed = append(malformed, f.Diag("ignore", c.Pos(), "unknown analyzer %q", n))
				}
				names[n] = true
			}
			pos := f.Position(c.Pos())
			sups = append(sups, suppression{file: pos.Filename, line: pos.Line, analyzers: names})
		}
	}
	return sups, malformed
}

// directiveText returns the part of a //lint:ignore comment after the
// prefix, and whether the comment is such a directive at all.
func directiveText(comment string) (string, bool) {
	if !strings.HasPrefix(comment, "//") {
		return "", false // block comments are not directives
	}
	body := strings.TrimPrefix(comment, "//")
	if !strings.HasPrefix(body, ignorePrefix) {
		return "", false
	}
	return strings.TrimSpace(strings.TrimPrefix(body, ignorePrefix)), true
}
