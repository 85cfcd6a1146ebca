// unstablesort flags sort.Slice calls whose comparator orders by a
// single key. sort.Slice is explicitly unstable: elements with equal
// keys land in an unspecified order, so a single-key comparator over
// data with possible ties produces run-dependent output — the exact
// failure mode the engine's bit-for-bit merge contract forbids. The fix
// is sort.SliceStable (when the input order is itself deterministic) or
// a multi-key tie-break.
package lint

import (
	"go/ast"
	"go/token"
)

// UnstableSort reports single-key sort.Slice comparators.
//
// A comparator is single-key when its body is exactly one return of a
// `<` or `>` comparison whose two operands are mirror images under
// swapping the two index parameters — `s[i].X < s[j].X` and the like.
// Bodies with an if-based tie-break, a ||/&& chain, or any additional
// statement are not flagged, and neither is sort.SliceStable. Sites
// whose keys are structurally unique (for example map keys collected
// into a slice) are deterministic already; suppress those with
// //lint:ignore unstablesort <why the keys are unique>.
const unstablesortName = "unstablesort"

var UnstableSort = &Analyzer{
	Name: unstablesortName,
	Doc:  "flags sort.Slice comparators that order by a single key with no tie-break",
	Run:  perFile(runUnstableSort),
}

func runUnstableSort(f *File) []Diagnostic {
	var diags []Diagnostic
	ast.Inspect(f.AST, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 2 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Slice" {
			return true
		}
		// The receiver must resolve to package sort itself — a value
		// shadowing the import name stays silent.
		if pkg, ok := sel.X.(*ast.Ident); !ok || !f.IsPkgIdent(pkg, "sort") {
			return true
		}
		cmp, ok := call.Args[1].(*ast.FuncLit)
		if !ok {
			return true
		}
		if key, found := singleKeyComparator(cmp); found {
			diags = append(diags, f.Diag(unstablesortName, call.Pos(),
				"sort.Slice comparator orders by the single key %s; equal keys land in nondeterministic order — use sort.SliceStable or add a tie-break", key))
		}
		return true
	})
	return diags
}

// singleKeyComparator reports whether the comparator literal is a
// single-key ordering, returning a printable name for the key.
func singleKeyComparator(fn *ast.FuncLit) (string, bool) {
	iName, jName, ok := comparatorParams(fn.Type)
	if !ok || fn.Body == nil || len(fn.Body.List) != 1 {
		return "", false
	}
	ret, ok := fn.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return "", false
	}
	bin, ok := ret.Results[0].(*ast.BinaryExpr)
	if !ok || (bin.Op != token.LSS && bin.Op != token.GTR) {
		return "", false
	}
	if !mirrored(bin.X, bin.Y, iName, jName) {
		return "", false
	}
	name := exprName(bin.X)
	if name == "" {
		name = "<expr>"
	}
	return name, true
}

// comparatorParams extracts the two int parameter names of a
// func(i, j int) bool literal.
func comparatorParams(ft *ast.FuncType) (string, string, bool) {
	if ft.Params == nil {
		return "", "", false
	}
	var names []string
	for _, fld := range ft.Params.List {
		for _, n := range fld.Names {
			names = append(names, n.Name)
		}
	}
	if len(names) != 2 {
		return "", "", false
	}
	return names[0], names[1], true
}

// mirrored reports whether y equals x with the two comparator parameters
// swapped — the definition of comparing one key on both sides. The
// comparison is a structural walk over the common expression shapes;
// any unrecognised node makes the answer false (never flag what we
// cannot read).
func mirrored(x, y ast.Expr, iName, jName string) bool {
	swap := func(name string) string {
		switch name {
		case iName:
			return jName
		case jName:
			return iName
		}
		return name
	}
	var eq func(a, b ast.Expr) bool
	eq = func(a, b ast.Expr) bool {
		switch av := a.(type) {
		case *ast.Ident:
			bv, ok := b.(*ast.Ident)
			return ok && swap(av.Name) == bv.Name
		case *ast.SelectorExpr:
			bv, ok := b.(*ast.SelectorExpr)
			return ok && av.Sel.Name == bv.Sel.Name && eq(av.X, bv.X)
		case *ast.IndexExpr:
			bv, ok := b.(*ast.IndexExpr)
			return ok && eq(av.X, bv.X) && eq(av.Index, bv.Index)
		case *ast.CallExpr:
			bv, ok := b.(*ast.CallExpr)
			if !ok || len(av.Args) != len(bv.Args) || !eq(av.Fun, bv.Fun) {
				return false
			}
			for k := range av.Args {
				if !eq(av.Args[k], bv.Args[k]) {
					return false
				}
			}
			return true
		case *ast.BasicLit:
			bv, ok := b.(*ast.BasicLit)
			return ok && av.Kind == bv.Kind && av.Value == bv.Value
		case *ast.ParenExpr:
			return eq(av.X, b)
		case *ast.UnaryExpr:
			bv, ok := b.(*ast.UnaryExpr)
			return ok && av.Op == bv.Op && eq(av.X, bv.X)
		case *ast.StarExpr:
			bv, ok := b.(*ast.StarExpr)
			return ok && eq(av.X, bv.X)
		case *ast.BinaryExpr:
			bv, ok := b.(*ast.BinaryExpr)
			return ok && av.Op == bv.Op && eq(av.X, bv.X) && eq(av.Y, bv.Y)
		}
		return false
	}
	if p, ok := y.(*ast.ParenExpr); ok {
		return mirrored(x, p.X, iName, jName)
	}
	return eq(x, y)
}
