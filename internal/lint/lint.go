// Package lint is tracescope's determinism-and-invariant static-analysis
// suite. The analysis engine promises bit-for-bit identical output at any
// worker count and cache limit; that invariant survives only while the
// code avoids a handful of patterns Go makes easy to write — ranging over
// a map straight into ordered output, ordering by wall-clock time, or
// unstable sorts with ambiguous comparators. The analyzers here turn
// those conventions into machine-checked properties.
//
// The framework is deliberately small and zero-dependency (stdlib
// go/ast, go/parser, go/token, go/types, go/importer only). Analyzers
// come in two shapes: per-file checks that keep working on code that
// does not compile yet, and package-level checks that see a whole
// type-checked package at once — a Loader parses and type-checks each
// package exactly once (load.go) and hands every analyzer the shared
// *types.Info, so interprocedural properties like "this function's
// return value is in map-iteration order" become checkable. Per-file
// analyzers consult the same type information when a file was loaded as
// part of a package and fall back to their documented syntactic
// heuristics when it was not. Findings are silenced per-site with
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
	"go/parser"
	"go/token"
	"go/types"
	"strings"

	"tracescope/internal/diag"
)

// Diagnostic is one finding at one source position. The type lives in
// internal/diag — shared with tracevet, the corpus verifier — so both
// tools emit identical artifacts; every finding this suite reports
// keeps the zero Severity, which renders as "warning" everywhere, as
// tracelint's severity signal is its exit status, not a per-finding
// ranking.
type Diagnostic = diag.Diagnostic

// File is one parsed source file handed to analyzers.
type File struct {
	Fset     *token.FileSet
	AST      *ast.File
	Filename string
	// Pkg points back to the type-checked package the file was loaded
	// into, or nil when the file was parsed stand-alone (ParseFile).
	// Analyzers consult it for optional type information and must keep
	// working — at their documented syntactic scope — when it is nil.
	Pkg *Package
}

// Position resolves a token position within the file.
func (f *File) Position(p token.Pos) token.Position { return f.Fset.Position(p) }

// Diag constructs a diagnostic for the analyzer at the given position.
func (f *File) Diag(name string, p token.Pos, format string, args ...interface{}) Diagnostic {
	return Diagnostic{Pos: f.Position(p), Analyzer: name, Message: fmt.Sprintf(format, args...)}
}

// IsPkgIdent reports whether id refers to the package imported under
// the given path. With type information (file loaded as part of a
// package) the identifier is resolved through the type checker, which
// removes the syntactic mode's one documented false-positive class — a
// local variable shadowing the import name. Without type information it
// falls back to comparing against syntacticName (the name ImportName
// resolved), preserving the old behaviour on stand-alone files.
func (f *File) IsPkgIdent(id *ast.Ident, path, syntacticName string) bool {
	if obj := f.Pkg.ObjectOf(id); obj != nil {
		pn, ok := obj.(*types.PkgName)
		return ok && pn.Imported().Path() == path
	}
	return syntacticName != "" && id.Name == syntacticName
}

// ImportName returns the identifier the file uses for the import of the
// given path ("" if the path is not imported, "." and "_" passed
// through). Analyzers use it so renamed imports are still matched and
// unrelated packages that happen to be called "rand" are not.
func (f *File) ImportName(path string) string {
	for _, imp := range f.AST.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		if p != path {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		if i := strings.LastIndex(p, "/"); i >= 0 {
			return p[i+1:]
		}
		return p
	}
	return ""
}

// Analyzer is one named check. Per-file analyzers set Run and work on
// one file at a time (with optional type info through File.Pkg);
// package-level analyzers set RunPackage and see a whole type-checked
// package at once — the scope interprocedural checks like detertaint
// need. Exactly one of the two must be set.
type Analyzer struct {
	// Name is the identifier used in diagnostics and suppressions.
	Name string
	// Doc is a one-line description for -help style listings.
	Doc string
	// Run reports the analyzer's findings for one file.
	Run func(f *File) []Diagnostic
	// RunPackage reports the analyzer's findings for a loaded package.
	// Package analyzers require type information and are skipped in
	// single-file (syntactic) mode.
	RunPackage func(p *Package) []Diagnostic
}

// All returns the full analyzer suite in a fixed order.
func All() []*Analyzer {
	return []*Analyzer{
		MapIter, WallTime, UnstableSort, DeterTaint, SpanEnd, ErrDrop, ObsReg,
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

// ParseFile parses one source file (src may be nil to read filename from
// disk) with comments retained, as suppressions and the test harness
// both need them.
func ParseFile(fset *token.FileSet, filename string, src interface{}) (*File, error) {
	astf, err := parser.ParseFile(fset, filename, src, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	return &File{Fset: fset, AST: astf, Filename: filename}, nil
}

// Run executes the per-file analyzers over the file, drops suppressed
// findings, adds findings for malformed suppression comments, and
// returns the result in deterministic order. Package-level analyzers
// are skipped: they need a loaded package (use RunPkg).
func Run(f *File, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		if a.Run != nil {
			diags = append(diags, a.Run(f)...)
		}
	}
	sups, malformed := suppressions(f)
	diags = append(diags, malformed...)
	out := diags[:0]
	for _, d := range diags {
		if !sups.covers(d) {
			out = append(out, d)
		}
	}
	SortDiagnostics(out)
	return out
}

// RunPkg executes the full suite — per-file analyzers over every file,
// package-level analyzers over the package — with suppressions gathered
// from all files, and returns the findings in deterministic order.
func RunPkg(p *Package, analyzers []*Analyzer) []Diagnostic {
	var (
		diags []Diagnostic
		sups  suppressionSet
	)
	for _, a := range analyzers {
		switch {
		case a.RunPackage != nil:
			diags = append(diags, a.RunPackage(p)...)
		case a.Run != nil:
			for _, f := range p.AllFiles() {
				diags = append(diags, a.Run(f)...)
			}
		}
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
