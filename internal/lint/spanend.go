// spanend enforces the observability layer's pairing contract: every
// span opened with a Recorder.Start-style call must be ended on every
// path (obs.Span: "every Start must be paired with exactly one End").
// A leaked span skews duration histograms and breaks the counter
// reconciliation the bench-smoke CI job checks (shard spans must equal
// the shard count), and — unlike a dropped error — nothing crashes, so
// only a machine check catches it.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// SpanEnd reports span values that are not provably ended on all paths.
//
// A span start is a `sp := x.Start(...)` assignment whose result type
// is an interface with an End() method (obs.Span, and any recorder
// seam shaped like it). The analyzer accepts, in order of preference:
//
//   - a `defer sp.End()` anywhere in the function — ends on every path
//     including panics;
//   - explicit sp.End() calls that a conservative path walk proves are
//     reached on every return path and at normal fall-through. The walk
//     understands straight-line code, blocks, and if/else (including
//     early returns after an End); an End inside a for, switch, or
//     select cannot be proven and is flagged — use defer there.
//
// A span that escapes the starting function — returned, passed to
// another call, stored through a selector or closure — transfers the
// obligation to the receiver and stays silent; `_ = sp` is not an
// escape. A span that is never held at all — a call returning a span
// type used as a statement, or assigned to the blank identifier — can
// never be ended and is flagged. _test.go files are exempt.
const spanendName = "spanend"

var SpanEnd = &Analyzer{
	Name: spanendName,
	Doc:  "flags Recorder.Start spans not ended on all paths (use defer end())",
	Run:  perFile(runSpanEnd),
}

func runSpanEnd(f *File) []Diagnostic {
	if strings.HasSuffix(f.Filename, "_test.go") {
		return nil
	}
	var diags []Diagnostic
	discarded := func(x ast.Expr) {
		if call, ok := x.(*ast.CallExpr); ok && isSpanType(f.Pkg.TypeOf(call)) {
			diags = append(diags, f.Diag(spanendName, call.Pos(),
				"span returned by %s is discarded and can never be ended — assign it and `defer sp.End()`", callName(call)))
		}
	}
	ast.Inspect(f.AST, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				diags = append(diags, checkFuncSpans(f, n.Body)...)
			}
		case *ast.FuncLit:
			diags = append(diags, checkFuncSpans(f, n.Body)...)
		case *ast.ExprStmt:
			discarded(n.X)
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				break
			}
			for i, lhs := range n.Lhs {
				if isBlank(lhs) {
					discarded(n.Rhs[i])
				}
			}
		}
		return true
	})
	return diags
}

// isBlank reports whether x is the blank identifier.
func isBlank(x ast.Expr) bool {
	id, ok := x.(*ast.Ident)
	return ok && id.Name == "_"
}

// spanStart is one `sp := x.Start(...)` site under analysis.
type spanStart struct {
	assign *ast.AssignStmt
	ident  *ast.Ident
	obj    types.Object
}

// checkFuncSpans analyzes one function body's span starts. Nested
// function literals are analyzed by their own runSpanEnd visit; here
// any use of an outer span inside one counts as an escape.
func checkFuncSpans(f *File, body *ast.BlockStmt) []Diagnostic {
	starts := findSpanStarts(f, body)
	if len(starts) == 0 {
		return nil
	}
	var diags []Diagnostic
	for _, st := range starts {
		if d := checkOneSpan(f, body, st); d != nil {
			diags = append(diags, *d)
		}
	}
	return diags
}

// findSpanStarts collects the body's direct span-start assignments,
// skipping nested function literals (they get their own visit).
func findSpanStarts(f *File, body *ast.BlockStmt) []spanStart {
	var starts []spanStart
	inspectSkipFuncLit(body, func(n ast.Node) {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Start" {
			return
		}
		if !isSpanType(f.Pkg.TypeOf(call)) {
			return
		}
		obj := f.Pkg.ObjectOf(id)
		if obj == nil {
			return
		}
		starts = append(starts, spanStart{assign: as, ident: id, obj: obj})
	})
	return starts
}

// isSpanType matches an interface with an End() method — obs.Span and
// anything shaped like it.
func isSpanType(t types.Type) bool {
	if t == nil {
		return false
	}
	iface, ok := t.Underlying().(*types.Interface)
	if !ok {
		return false
	}
	for i := 0; i < iface.NumMethods(); i++ {
		m := iface.Method(i)
		if m.Name() != "End" {
			continue
		}
		sig := m.Type().(*types.Signature)
		return sig.Params().Len() == 0 && sig.Results().Len() == 0
	}
	return false
}

// checkOneSpan classifies every use of the span variable, then — when
// neither deferred nor escaped — runs the path walk.
func checkOneSpan(f *File, body *ast.BlockStmt, st spanStart) *Diagnostic {
	var (
		deferEnd bool
		escaped  bool
	)
	endStmts := make(map[ast.Stmt]bool)
	goodIdents := map[*ast.Ident]bool{st.ident: true}

	// First mark the idents consumed by the two sanctioned shapes, and
	// by `_ = sp`, which only silences the compiler …
	inspectSkipFuncLit(body, func(n ast.Node) {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) != len(s.Rhs) {
				break
			}
			for i, lhs := range s.Lhs {
				if id, ok := s.Rhs[i].(*ast.Ident); ok && isBlank(lhs) && f.Pkg.ObjectOf(id) == st.obj {
					goodIdents[id] = true
				}
			}
		case *ast.DeferStmt:
			if id := endCallOn(f, s.Call, st.obj); id != nil {
				deferEnd = true
				goodIdents[id] = true
			}
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				if id := endCallOn(f, call, st.obj); id != nil {
					endStmts[s] = true
					goodIdents[id] = true
				}
			}
		}
	})
	// … then any other mention of the variable is an escape. Uses inside
	// nested function literals are escapes too (ast.Inspect descends),
	// which is exactly right: the closure owns the obligation now.
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || goodIdents[id] {
			return true
		}
		if f.Pkg.ObjectOf(id) == st.obj {
			escaped = true
		}
		return true
	})
	if deferEnd || escaped {
		return nil
	}

	w := &spanPathWalk{f: f, endStmts: endStmts}
	ended, terminated, ok := w.evalFrom(body, st.assign)
	if ok && (ended || terminated) {
		return nil
	}
	msg := "span %s is not ended on all paths — add `defer %s.End()` right after Start"
	if len(endStmts) == 0 {
		msg = "span %s is never ended — add `defer %s.End()` right after Start"
	}
	d := f.Diag(spanendName, st.assign.Pos(), msg, st.ident.Name, st.ident.Name)
	return &d
}

// endCallOn returns the receiver identifier when call is `sp.End()` on
// the tracked object, else nil.
func endCallOn(f *File, call *ast.CallExpr, obj types.Object) *ast.Ident {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "End" || len(call.Args) != 0 {
		return nil
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || f.Pkg.ObjectOf(id) != obj {
		return nil
	}
	return id
}

// spanPathWalk is the conservative all-paths checker for one span.
type spanPathWalk struct {
	f        *File
	endStmts map[ast.Stmt]bool
}

// evalFrom locates the statement list holding the Start assignment and
// evaluates everything after it. When the assignment sits in a nested
// block, reaching that block's end un-ended is treated as a leak: the
// variable dies with the block.
func (w *spanPathWalk) evalFrom(body *ast.BlockStmt, assign ast.Stmt) (ended, terminated, ok bool) {
	list := containingList(body, assign)
	if list == nil {
		// Start in an unusual position (if-init, for-post, …): not
		// provable, ask for defer.
		return false, false, false
	}
	for i, s := range list {
		if s == assign {
			return w.evalStmts(list[i+1:], false)
		}
	}
	return false, false, false
}

// containingList finds the statement list that directly holds target.
func containingList(body *ast.BlockStmt, target ast.Stmt) []ast.Stmt {
	var found []ast.Stmt
	ast.Inspect(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		var list []ast.Stmt
		switch b := n.(type) {
		case *ast.BlockStmt:
			list = b.List
		case *ast.CaseClause:
			list = b.Body
		case *ast.CommClause:
			list = b.Body
		default:
			return true
		}
		for _, s := range list {
			if s == target {
				found = list
				return false
			}
		}
		return true
	})
	return found
}

// evalStmts walks a statement list with the span's ended-state, and
// reports (endedAtFallThrough, allPathsTerminated, provable). Any
// construct the walk cannot reason about that touches an End or hides a
// return makes the site unprovable — the diagnostic says to use defer.
func (w *spanPathWalk) evalStmts(list []ast.Stmt, ended bool) (bool, bool, bool) {
	for _, s := range list {
		switch st := s.(type) {
		case *ast.ExprStmt:
			if w.endStmts[st] {
				ended = true
			}
		case *ast.ReturnStmt:
			if !ended {
				return false, false, false
			}
			return ended, true, true
		case *ast.BlockStmt:
			e, term, ok := w.evalStmts(st.List, ended)
			if !ok {
				return false, false, false
			}
			if term {
				return e, true, true
			}
			ended = e
		case *ast.IfStmt:
			e, term, ok := w.evalIf(st, ended)
			if !ok {
				return false, false, false
			}
			if term {
				return e, true, true
			}
			ended = e
		default:
			// Loops, switches, selects, gotos, nested closures: opaque.
			// An End hidden inside cannot be proven to run on all paths,
			// and a return hidden inside may leave un-ended.
			if w.containsEnd(s) || (!ended && containsReturn(s)) {
				return false, false, false
			}
		}
	}
	return ended, false, true
}

// evalIf merges the two branches of an if/else (including else-if
// chains). Branches that terminate stop contributing to the merged
// ended-state.
func (w *spanPathWalk) evalIf(st *ast.IfStmt, ended bool) (bool, bool, bool) {
	eThen, tThen, ok := w.evalStmts(st.Body.List, ended)
	if !ok {
		return false, false, false
	}
	eElse, tElse := ended, false
	switch el := st.Else.(type) {
	case nil:
	case *ast.BlockStmt:
		eElse, tElse, ok = w.evalStmts(el.List, ended)
	case *ast.IfStmt:
		eElse, tElse, ok = w.evalIf(el, ended)
	default:
		ok = false
	}
	if !ok {
		return false, false, false
	}
	switch {
	case tThen && tElse:
		return true, true, true
	case tThen:
		return eElse, false, true
	case tElse:
		return eThen, false, true
	default:
		return eThen && eElse, false, true
	}
}

// containsEnd reports whether any tracked End statement sits inside s.
func (w *spanPathWalk) containsEnd(s ast.Stmt) bool {
	found := false
	inspectSkipFuncLit(s, func(n ast.Node) {
		if st, ok := n.(*ast.ExprStmt); ok && w.endStmts[st] {
			found = true
		}
	})
	return found
}

// containsReturn reports whether s hides a return statement, not
// counting nested function literals (their returns end the closure,
// not this function).
func containsReturn(s ast.Stmt) bool {
	found := false
	inspectSkipFuncLit(s, func(n ast.Node) {
		if _, ok := n.(*ast.ReturnStmt); ok {
			found = true
		}
	})
	return found
}

// inspectSkipFuncLit walks the subtree like ast.Inspect but does not
// descend into function literals.
func inspectSkipFuncLit(root ast.Node, visit func(ast.Node)) {
	ast.Inspect(root, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n != root {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}
