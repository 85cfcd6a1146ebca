// walltime enforces the discrete-event design rule: analysis code under
// internal/ runs on simulated trace time and explicitly seeded
// randomness (stats.Rand), never on the wall clock or the global
// math/rand state. A single time.Now in a merge path makes two runs of
// the same corpus disagree; a single rand.Intn couples results to
// whatever else touched the global generator.
package lint

import (
	"go/ast"
	"path/filepath"
	"strings"
)

// WallTime reports wall-clock and global-randomness calls in internal/
// analysis packages.
//
// Flagged: time.Now, time.Since, time.Until, and the global math/rand
// top-level generator functions (rand.Intn, rand.Float64, rand.Seed,
// rand.Shuffle, ...). Allowed: the rand.New/rand.NewSource/rand.NewZipf
// constructors (they build the explicitly seeded generators stats.Rand
// wraps) and everything in _test.go files and outside internal/ — the
// cmd/ benchmarks legitimately measure wall time. The receiver must
// resolve to the time or math/rand import, so renamed imports are
// matched and a local variable or another package named "rand" is not.
const walltimeName = "walltime"

var WallTime = &Analyzer{
	Name: walltimeName,
	Doc:  "forbids time.Now/time.Since and global math/rand in internal analysis packages",
	Run:  perFile(runWallTime),
}

// wallClockFuncs are the time package functions that read the machine
// clock. Constructors like time.Unix or time.Date and pure Duration
// arithmetic stay legal.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
}

// globalRandFuncs are the math/rand top-level functions backed by the
// shared global generator.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
}

func runWallTime(f *File) []Diagnostic {
	if !inInternal(f.Filename) || strings.HasSuffix(f.Filename, "_test.go") {
		return nil
	}
	var diags []Diagnostic
	ast.Inspect(f.AST, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		switch {
		case f.IsPkgIdent(pkg, "time") && wallClockFuncs[sel.Sel.Name]:
			diags = append(diags, f.Diag(walltimeName, call.Pos(),
				"%s.%s reads the wall clock; analysis code runs on simulated trace.Time — inject a clock if one is really needed",
				pkg.Name, sel.Sel.Name))
		case f.IsPkgIdent(pkg, "math/rand") && globalRandFuncs[sel.Sel.Name]:
			diags = append(diags, f.Diag(walltimeName, call.Pos(),
				"%s.%s uses the global math/rand generator; use an explicitly seeded stats.Rand so runs are reproducible",
				pkg.Name, sel.Sel.Name))
		}
		return true
	})
	return diags
}

// inInternal reports whether the file path has an "internal" element —
// the analyzer's scope. Paths are compared element-wise so a file named
// "internals.go" does not count.
func inInternal(path string) bool {
	for _, el := range strings.Split(filepath.ToSlash(path), "/") {
		if el == "internal" {
			return true
		}
	}
	return false
}
