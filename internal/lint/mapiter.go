// mapiter flags the bug class that silently breaks the engine's
// partition-invariant merges: ranging over a map directly into ordered
// output. Go randomises map iteration order per run, so a loop that
// appends to a slice, writes to an io.Writer/encoder, or accumulates a
// float sum or a string while ranging over a map produces run-dependent
// results unless a deterministic sort follows.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapIter reports nondeterministic map-iteration patterns.
//
// An expression counts as a map exactly when its static type is a map.
// Three loop bodies are flagged:
//
//   - appending to a slice declared outside the loop, unless a sort.*
//     call follows the loop in the same function (the collect-then-sort
//     idiom is the sanctioned fix and stays silent);
//   - writing to a writer or encoder (fmt.Fprint*, Write*, Encode, ...)
//     — sorting afterwards cannot reorder bytes already written;
//   - accumulating into a float or a string with += — float addition is
//     not associative and concatenation is not commutative, so even a
//     commutative-looking sum follows map order.
const mapiterName = "mapiter"

var MapIter = &Analyzer{
	Name: mapiterName,
	Doc:  "flags range-over-map loops that feed ordered output without a deterministic sort",
	Run:  perFile(runMapIter),
}

func runMapIter(f *File) []Diagnostic {
	var diags []Diagnostic
	for _, decl := range f.AST.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		diags = append(diags, mapIterFunc(f, fn)...)
	}
	return diags
}

func mapIterFunc(f *File, fn *ast.FuncDecl) []Diagnostic {
	// Positions of sort.* calls, for the collect-then-sort exemption.
	var sortCalls []token.Pos
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isSortCall(f, call) {
			sortCalls = append(sortCalls, call.Pos())
		}
		return true
	})
	sortedAfter := func(end token.Pos) bool {
		for _, p := range sortCalls {
			if p > end {
				return true
			}
		}
		return false
	}

	var diags []Diagnostic
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok || !isMap(f.Pkg.TypeOf(rng.X)) {
			return true
		}
		appends, writes, adds := inspectRangeBody(f, rng.Body)
		for _, name := range appends {
			if sortedAfter(rng.End()) {
				continue
			}
			diags = append(diags, f.Diag(mapiterName, rng.Pos(),
				"appends to %s while ranging over a map with no subsequent sort; map iteration order is nondeterministic", name))
		}
		for _, name := range writes {
			diags = append(diags, f.Diag(mapiterName, rng.Pos(),
				"writes via %s while ranging over a map; output order is nondeterministic — collect, sort, then emit", name))
		}
		for _, a := range adds {
			diags = append(diags, f.Diag(mapiterName, rng.Pos(),
				"accumulates %s %s while ranging over a map; the result depends on the order of the additions, and map order is nondeterministic", a.kind, a.name))
		}
		return true
	})
	return diags
}

// isMap reports whether t is a map type.
func isMap(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// orderedAdd is a += target whose result depends on the order of the
// additions.
type orderedAdd struct {
	name, kind string
}

// addKind names the type of a += target that is order-sensitive —
// "float" (addition is not associative) or "string" (concatenation is
// not commutative) — and returns "" for every other type.
func addKind(t types.Type) string {
	if t == nil {
		return ""
	}
	b, ok := t.Underlying().(*types.Basic)
	switch {
	case !ok:
		return ""
	case b.Info()&types.IsFloat != 0:
		return "float"
	case b.Info()&types.IsString != 0:
		return "string"
	}
	return ""
}

// writerMethods are selector names whose call inside a map range commits
// bytes in iteration order: io.Writer and strings.Builder methods,
// fmt/io writer helpers, and stream encoders.
var writerMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Print": true, "Printf": true, "Println": true,
	"Encode": true,
}

// inspectRangeBody scans a map-range body for the flagged accumulation
// shapes. Nested closures are scanned too: a write is a write regardless
// of the function literal it hides in.
func inspectRangeBody(f *File, body *ast.BlockStmt) (appends, writes []string, adds []orderedAdd) {
	seenAppend := make(map[string]bool)
	seenWrite := make(map[string]bool)
	seenAdd := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			// x = append(x, ...) and friends.
			if st.Tok == token.ASSIGN || st.Tok == token.DEFINE {
				for i, rhs := range st.Rhs {
					call, ok := rhs.(*ast.CallExpr)
					if !ok {
						continue
					}
					if fun, ok := call.Fun.(*ast.Ident); ok && fun.Name == "append" && i < len(st.Lhs) {
						name := exprName(st.Lhs[i])
						if name != "" && !seenAppend[name] {
							seenAppend[name] = true
							appends = append(appends, name)
						}
					}
				}
			}
			// sum += v on a float, s += k on a string.
			if st.Tok == token.ADD_ASSIGN && len(st.Lhs) == 1 {
				kind := addKind(f.Pkg.TypeOf(st.Lhs[0]))
				if name := exprName(st.Lhs[0]); kind != "" && name != "" && !seenAdd[name] {
					seenAdd[name] = true
					adds = append(adds, orderedAdd{name: name, kind: kind})
				}
			}
		case *ast.CallExpr:
			sel, ok := st.Fun.(*ast.SelectorExpr)
			if !ok || !writerMethods[sel.Sel.Name] {
				return true
			}
			name := exprName(sel)
			if !seenWrite[name] {
				seenWrite[name] = true
				writes = append(writes, name)
			}
		}
		return true
	})
	return appends, writes, adds
}

// isSortCall matches sort.<Anything>(...) — any call into the stdlib
// sort package. Matching on the package keeps the exemption simple; a
// false exemption only reduces findings on code that already sorts.
func isSortCall(f *File, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && f.IsPkgIdent(id, "sort")
}

// exprName renders a short dotted name for diagnostics ("out",
// "fmt.Fprintf", "b.WriteString"); "" when the expression has no simple
// name.
func exprName(x ast.Expr) string {
	switch e := x.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		if base := exprName(e.X); base != "" {
			return base + "." + e.Sel.Name
		}
		return e.Sel.Name
	case *ast.IndexExpr:
		return exprName(e.X)
	case *ast.StarExpr:
		return exprName(e.X)
	case *ast.ParenExpr:
		return exprName(e.X)
	}
	return ""
}
