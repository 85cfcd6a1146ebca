// obsreg is the observability-name registry: it statically harvests
// every metric name the tree hands to an obs.Recorder — counters via
// Add, histograms via Observe, spans via Start, progress via Progress —
// and turns naming discipline into a checked property. The paper's
// methodology stands on being able to find a phenomenon in the
// recorded data; a counter that drifts to a second spelling, or one
// name serving two metric kinds, quietly breaks every dashboard and
// every cross-run diff that keyed on it. The harvested registry also
// generates METRICS.md (tracelint -metricsdoc), which CI regenerates
// and diffs so the doc cannot rot.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// ObsReg reports observability-naming violations.
//
// Recorder calls are recognised by method signature, not package
// identity, so the check also covers test fakes and the fixtures:
// Add(string, int64), Observe(string, int64), Progress(string, int64,
// int64), and Start(string) returning a value with an End() method.
// The first argument classifies the name:
//
//   - a string literal registers verbatim;
//   - a concatenation with a literal suffix or prefix (label +
//     "_shard") registers as the pattern "*_shard";
//   - anything fully dynamic is skipped — the registry cannot see it,
//     and the call site owns the discipline.
//
// Findings:
//
//   - kind conflict: one name used as two different kinds (span and
//     progress may share — a span reports its own progress — every
//     other pairing is a conflict), reported at the later site;
//   - format drift: names must match ^[a-z][a-z0-9_]*$, counters must
//     end in _total, and no other kind may end in _total (the
//     Prometheus-style convention the exposition endpoints assume).
const obsregName = "obsreg"

var ObsReg = &Analyzer{
	Name: obsregName,
	Doc:  "harvests obs metric names into a registry and flags duplicates and format drift",
	Run:  runObsReg,
}

// MetricSite is one harvested Recorder call.
type MetricSite struct {
	Name    string // literal name or "*"-pattern
	Kind    string // "counter", "histogram", "span", "progress"
	Dynamic bool   // true when Name is a pattern, not a literal
	Pos     token.Position
	PkgPath string
}

var metricNameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// harvestMetrics collects every recognisable Recorder call in the
// package's non-test files, in deterministic file and source order.
func harvestMetrics(p *Package) []MetricSite {
	var sites []MetricSite
	for _, f := range p.Files {
		ast.Inspect(f.AST, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			kind, ok := recorderCallKind(p, call)
			if !ok || len(call.Args) == 0 {
				return true
			}
			name, dynamic, ok := metricNameOf(call.Args[0])
			if !ok {
				return true // fully dynamic: invisible to the registry
			}
			sites = append(sites, MetricSite{
				Name: name, Kind: kind, Dynamic: dynamic,
				Pos: f.Position(call.Args[0].Pos()), PkgPath: p.Path,
			})
			return true
		})
	}
	return sites
}

func runObsReg(p *Package) []Diagnostic {
	sites := harvestMetrics(p)
	if len(sites) == 0 {
		return nil
	}
	var diags []Diagnostic
	diag := func(s MetricSite, format string, args ...interface{}) {
		diags = append(diags, Diagnostic{
			Pos: s.Pos, Analyzer: obsregName, Message: fmt.Sprintf(format, args...),
		})
	}

	// Format drift, per site.
	for _, s := range sites {
		bare := strings.TrimPrefix(strings.TrimSuffix(s.Name, "*"), "*")
		if bare != "" && !metricNameRE.MatchString(strings.Trim(bare, "_")) {
			diag(s, "metric name %q does not match ^[a-z][a-z0-9_]*$; one spelling convention keeps dashboards greppable", s.Name)
			continue
		}
		hasTotal := strings.HasSuffix(s.Name, "_total")
		switch {
		case s.Kind == "counter" && !hasTotal && !s.Dynamic:
			diag(s, "counter %q does not end in _total; the exposition convention separates counters from gauges by suffix", s.Name)
		case s.Kind != "counter" && hasTotal:
			diag(s, "%s %q ends in _total, which the exposition convention reserves for counters", s.Kind, s.Name)
		}
	}

	// Kind conflicts: one name, two kinds. Span and progress may share a
	// name — a span reports progress under its own label.
	first := make(map[string]MetricSite)
	for _, s := range sites {
		prev, seen := first[s.Name]
		if !seen {
			first[s.Name] = s
			continue
		}
		if prev.Kind == s.Kind || compatibleKinds(prev.Kind, s.Kind) {
			continue
		}
		diag(s, "metric %q used as %s here but as %s at %s:%d; one name must keep one kind",
			s.Name, s.Kind, prev.Kind, filepath.Base(prev.Pos.Filename), prev.Pos.Line)
	}
	return diags
}

// compatibleKinds reports the one sanctioned kind pairing.
func compatibleKinds(a, b string) bool {
	return (a == "span" && b == "progress") || (a == "progress" && b == "span")
}

// recorderKinds maps Recorder method names to metric kinds; the
// signature check below keeps lookalikes out.
var recorderKinds = map[string]string{
	"Add": "counter", "Observe": "histogram", "Start": "span", "Progress": "progress",
}

// recorderCallKind matches a call against the obs.Recorder method
// shapes and returns the metric kind it records.
func recorderCallKind(p *Package, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	kind, ok := recorderKinds[sel.Sel.Name]
	if !ok {
		return "", false
	}
	fn, ok := p.ObjectOf(sel.Sel).(*types.Func)
	if !ok {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	if !recorderSignature(kind, sig) {
		return "", false
	}
	return kind, true
}

// recorderSignature checks the parameter and result shape of each
// Recorder method: Add/Observe (string, int64); Progress (string,
// int64, int64); Start (string) returning a type with End().
func recorderSignature(kind string, sig *types.Signature) bool {
	params := sig.Params()
	if params.Len() == 0 || !isString(params.At(0).Type()) {
		return false
	}
	allInt64After := func(n int) bool {
		if params.Len() != n {
			return false
		}
		for i := 1; i < n; i++ {
			if !isInt64(params.At(i).Type()) {
				return false
			}
		}
		return true
	}
	switch kind {
	case "counter", "histogram":
		return allInt64After(2) && sig.Results().Len() == 0
	case "progress":
		return allInt64After(3) && sig.Results().Len() == 0
	case "span":
		if params.Len() != 1 || sig.Results().Len() != 1 {
			return false
		}
		return hasEndMethod(sig.Results().At(0).Type())
	}
	return false
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.String
}

func isInt64(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Int64
}

// hasEndMethod reports whether the type (or its pointee) has an
// End() method — the Span shape.
func hasEndMethod(t types.Type) bool {
	ms := types.NewMethodSet(t)
	if ptr := types.NewPointer(t); ms.Len() == 0 {
		ms = types.NewMethodSet(ptr)
	}
	for i := 0; i < ms.Len(); i++ {
		if ms.At(i).Obj().Name() == "End" {
			return true
		}
	}
	return false
}

// metricNameOf classifies the first argument: literal names register
// verbatim; concatenations with a literal half register as patterns;
// fully dynamic arguments are invisible (ok=false).
func metricNameOf(arg ast.Expr) (name string, dynamic, ok bool) {
	switch e := arg.(type) {
	case *ast.BasicLit:
		if e.Kind != token.STRING {
			return "", false, false
		}
		s, err := strconv.Unquote(e.Value)
		if err != nil {
			return "", false, false
		}
		return s, false, true
	case *ast.BinaryExpr:
		if e.Op != token.ADD {
			return "", false, false
		}
		if lit, ok := e.Y.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if s, err := strconv.Unquote(lit.Value); err == nil {
				return "*" + s, true, true
			}
		}
		if lit, ok := e.X.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if s, err := strconv.Unquote(lit.Value); err == nil {
				return s + "*", true, true
			}
		}
		return "", false, false
	case *ast.ParenExpr:
		return metricNameOf(e.X)
	}
	return "", false, false
}

// Metric is one row of the generated registry document.
type Metric struct {
	Name     string
	Kind     string // "counter", "span", "span+progress", ...
	Packages []string
}

// CollectMetrics merges the harvested sites of several packages into
// the registry rows METRICS.md is generated from, sorted by name.
func CollectMetrics(pkgs []*Package) []Metric {
	type agg struct {
		kinds map[string]bool
		pkgs  map[string]bool
	}
	byName := make(map[string]*agg)
	for _, p := range pkgs {
		for _, s := range harvestMetrics(p) {
			a := byName[s.Name]
			if a == nil {
				a = &agg{kinds: map[string]bool{}, pkgs: map[string]bool{}}
				byName[s.Name] = a
			}
			a.kinds[s.Kind] = true
			a.pkgs[shortPkgPath(s.PkgPath)] = true
		}
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]Metric, 0, len(names))
	for _, n := range names {
		a := byName[n]
		kinds := make([]string, 0, len(a.kinds))
		for k := range a.kinds {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		pkgs := make([]string, 0, len(a.pkgs))
		for p := range a.pkgs {
			pkgs = append(pkgs, p)
		}
		sort.Strings(pkgs)
		out = append(out, Metric{Name: n, Kind: strings.Join(kinds, "+"), Packages: pkgs})
	}
	return out
}

// shortPkgPath trims the module prefix so the doc reads
// internal/engine, not tracescope/internal/engine.
func shortPkgPath(path string) string {
	if i := strings.Index(path, "internal/"); i >= 0 {
		return path[i:]
	}
	return path
}

// WriteMetricsDoc renders the registry as the checked-in METRICS.md.
// The output is bit-for-bit deterministic; `make metrics-doc`
// regenerates it and fails CI on any diff.
func WriteMetricsDoc(w io.Writer, ms []Metric) error {
	var sb strings.Builder
	sb.WriteString("# Metrics registry\n\n")
	sb.WriteString("Generated by `tracelint -metricsdoc` from every obs.Recorder call in the\n")
	sb.WriteString("tree — do not edit by hand; run `make metrics-doc-update` after adding or\n")
	sb.WriteString("renaming a metric. Names containing `*` are dynamic patterns whose variable\n")
	sb.WriteString("part is chosen at run time (per-analysis span labels and the like).\n\n")
	sb.WriteString("| name | kind | recorded in |\n")
	sb.WriteString("|------|------|-------------|\n")
	for _, m := range ms {
		fmt.Fprintf(&sb, "| `%s` | %s | %s |\n", m.Name, m.Kind, strings.Join(m.Packages, ", "))
	}
	_, err := io.WriteString(w, sb.String())
	return err
}
