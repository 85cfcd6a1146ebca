// errdrop flags silently discarded errors on the analysis hot paths. A
// dropped error in internal/trace or internal/impact is how a truncated
// stream file turns into a silently wrong result instead of a loud
// failure: the out-of-core design (DESIGN.md §5b) latches fetch errors
// precisely so no analysis reports numbers computed from partial data,
// and a single ignored return value re-opens that hole.
package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// ErrDrop reports call statements that discard an error result in the
// hot-path packages internal/engine, internal/impact, internal/trace,
// internal/core, internal/ingest, internal/tracevet and internal/diag.
//
// Flagged: an expression statement, defer, or go statement whose call
// returns an error (alone or among other results) that nothing
// consumes. _test.go files are exempt.
//
// Documented false-positive policy — exempt by design:
//
//   - writes to a *bytes.Buffer or *strings.Builder: their Write
//     methods are documented to always return a nil error;
//   - writes to a *bufio.Writer (method calls on it, and fmt.Fprint*
//     with one as the destination): bufio latches the first error and
//     re-reports it from Flush, so per-write checks triple the noise
//     without adding safety. Dropping the Flush error itself IS
//     flagged — that is where the latched error surfaces.
//
// Deliberate discards (an io.Closer on a read-only file whose payload
// was already validated, say) are silenced with
// //lint:ignore errdrop <reason>.
const errdropName = "errdrop"

var ErrDrop = &Analyzer{
	Name: errdropName,
	Doc:  "flags discarded error results on analysis hot paths (internal/engine, impact, trace, core, ingest, tracevet, diag)",
	Run:  perFile(runErrDrop),
}

// errdropPackages are the directory names under internal/ the analyzer
// applies to — the packages on the analysis hot path, where a dropped
// error means a silently wrong result rather than a cosmetic leak.
// Subpackages inherit the scope: internal/trace/colfmt (the v4 columnar
// block codec) is covered through its trace parent.
var errdropPackages = map[string]bool{
	"engine": true, "impact": true, "trace": true, "core": true,
	"ingest": true, "tracevet": true, "diag": true,
}

// inErrdropScope reports whether the file path is under one of the
// hot-path packages. The lint fixtures under testdata/errdrop are
// in scope too, so the analyzer's own harness can exercise it.
func inErrdropScope(path string) bool {
	els := strings.Split(filepath.ToSlash(path), "/")
	for i, el := range els {
		if i+1 >= len(els) {
			break
		}
		next := els[i+1]
		if el == "internal" && errdropPackages[next] {
			return true
		}
		if el == "testdata" && next == errdropName {
			return true
		}
	}
	return false
}

func runErrDrop(f *File) []Diagnostic {
	if !inErrdropScope(f.Filename) || strings.HasSuffix(f.Filename, "_test.go") {
		return nil
	}
	var diags []Diagnostic
	flag := func(call *ast.CallExpr, how string) {
		if !callDropsError(f, call) {
			return
		}
		diags = append(diags, f.Diag(errdropName, call.Pos(),
			"%s discards the error returned by %s; on the analysis hot path a dropped error is a silently wrong result — handle it or suppress with a reason",
			how, callName(call)))
	}
	ast.Inspect(f.AST, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.ExprStmt:
			if call, ok := st.X.(*ast.CallExpr); ok {
				flag(call, "statement")
			}
		case *ast.DeferStmt:
			flag(st.Call, "defer")
		case *ast.GoStmt:
			flag(st.Call, "go")
		}
		return true
	})
	return diags
}

// callDropsError reports whether the call returns an error nothing can
// see, modulo the documented buffered/infallible-writer exemptions.
func callDropsError(f *File, call *ast.CallExpr) bool {
	t := f.Pkg.TypeOf(call)
	if t == nil || !resultContainsError(t) {
		return false
	}
	return !exemptWriterCall(f, call)
}

// resultContainsError reports whether a call's result type includes an
// error value.
func resultContainsError(t types.Type) bool {
	if tup, ok := t.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			if isErrorType(tup.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return isErrorType(t)
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// exemptWriterCall implements the false-positive policy: method calls
// on *bytes.Buffer and *strings.Builder (infallible) and on
// *bufio.Writer (errors deferred to Flush), plus fmt.Fprint* whose
// destination is one of those writers. Flush is never exempt.
func exemptWriterCall(f *File, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	// fmt.Fprint/Fprintf/Fprintln with an exempt destination.
	if id, ok := sel.X.(*ast.Ident); ok && f.IsPkgIdent(id, "fmt") {
		if strings.HasPrefix(sel.Sel.Name, "Fprint") && len(call.Args) > 0 {
			return exemptWriterType(f.Pkg.TypeOf(call.Args[0]))
		}
		return false
	}
	// Method call on an exempt writer — but the latched bufio error must
	// surface somewhere, so Flush stays flagged.
	if sel.Sel.Name == "Flush" {
		return false
	}
	return exemptWriterType(f.Pkg.TypeOf(sel.X))
}

// exemptWriterType matches *bytes.Buffer, *strings.Builder, and
// *bufio.Writer (also unpointered, for completeness).
func exemptWriterType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	switch named.Obj().Pkg().Path() + "." + named.Obj().Name() {
	case "bytes.Buffer", "strings.Builder", "bufio.Writer":
		return true
	}
	return false
}

// callName renders a short printable name for the called function.
func callName(call *ast.CallExpr) string {
	if name := exprName(call.Fun); name != "" {
		return name
	}
	return "the call"
}
