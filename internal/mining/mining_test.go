package mining

import (
	"reflect"
	"strings"
	"testing"

	"tracescope/internal/awg"
	"tracescope/internal/sigset"
	"tracescope/internal/trace"
	"tracescope/internal/waitgraph"
)

const ms = trace.Millisecond

type fixture struct {
	s    *trace.Stream
	next int
}

func newFixture() *fixture { return &fixture{s: trace.NewStream("f")} }

func (f *fixture) stack(frames ...string) trace.StackID {
	return f.s.InternStackStrings(frames...)
}

func (f *fixture) run(cost trace.Duration, sig string) *waitgraph.Node {
	f.next++
	return &waitgraph.Node{
		Event: trace.EventID{Index: f.next}, Type: trace.Running,
		Cost: cost, Stack: f.stack(sig),
	}
}

func (f *fixture) wait(cost trace.Duration, waitSig, unwaitSig string, children ...*waitgraph.Node) *waitgraph.Node {
	f.next++
	return &waitgraph.Node{
		Event: trace.EventID{Index: f.next}, Type: trace.Wait,
		Cost:      cost,
		Stack:     f.stack("kernel!AcquireLock", waitSig),
		HasUnwait: true, UnwaitStack: f.stack(unwaitSig),
		Children: children,
	}
}

func (f *fixture) agg(roots ...*waitgraph.Node) *awg.Graph {
	g := &waitgraph.Graph{Stream: f.s, Roots: roots}
	return awg.Aggregate([]*waitgraph.Graph{g}, trace.AllDrivers(), awg.Options{Reduce: true})
}

// chain builds wait(a) -> wait(b) -> run(c).
func (f *fixture) chain(costs [3]trace.Duration) *awg.Graph {
	inner := f.wait(costs[1], "fs.sys!AcquireMDU", "fs.sys!AcquireMDU", f.run(costs[2], "se.sys!Decrypt"))
	outer := f.wait(costs[0], "fv.sys!Query", "fv.sys!Query", inner)
	return f.agg(outer)
}

func TestEnumerateMetasCounts(t *testing.T) {
	f := newFixture()
	g := f.chain([3]trace.Duration{10 * ms, 8 * ms, 2 * ms})
	// Chain of 3 nodes: segments = 3 (len 1) + 2 (len 2) + 1 (len 3) = 6.
	metas, segments := EnumerateMetas(g, 5, 1<<20)
	if segments != 6 {
		t.Errorf("segments = %d, want 6", segments)
	}
	// All 6 segments have distinct tuples here.
	if len(metas) != 6 {
		t.Errorf("metas = %d, want 6", len(metas))
	}
	// The full-chain tuple must exist with the leaf metric.
	full := sigset.New(
		[]string{"fv.sys!Query", "fs.sys!AcquireMDU"},
		[]string{"fv.sys!Query", "fs.sys!AcquireMDU"},
		[]string{"se.sys!Decrypt"},
	)
	m, ok := metas[full.Key()]
	if !ok {
		t.Fatalf("full-chain meta missing; have %d metas", len(metas))
	}
	if m.C != 2*ms || m.N != 1 {
		t.Errorf("full-chain meta C=%v N=%d, want leaf metric 2ms/1", m.C, m.N)
	}
}

func TestEnumerateMetasBoundedK(t *testing.T) {
	f := newFixture()
	g := f.chain([3]trace.Duration{10 * ms, 8 * ms, 2 * ms})
	_, seg1 := EnumerateMetas(g, 1, 1<<20)
	if seg1 != 3 {
		t.Errorf("k=1 segments = %d, want 3", seg1)
	}
	_, seg2 := EnumerateMetas(g, 2, 1<<20)
	if seg2 != 5 {
		t.Errorf("k=2 segments = %d, want 5", seg2)
	}
}

func TestEnumerateMetasSegmentCap(t *testing.T) {
	f := newFixture()
	g := f.chain([3]trace.Duration{10 * ms, 8 * ms, 2 * ms})
	_, segments := EnumerateMetas(g, 5, 2)
	if segments != 2 {
		t.Errorf("segments = %d, want cap 2", segments)
	}
}

func TestDiscoverContrastsSlowOnly(t *testing.T) {
	f := newFixture()
	slowG := f.chain([3]trace.Duration{10 * ms, 8 * ms, 2 * ms})
	slow, _ := EnumerateMetas(slowG, 5, 1<<20)
	fast := map[string]*Meta{} // empty fast class

	contrasts := DiscoverContrasts(slow, fast, 100*ms, 300*ms)
	if len(contrasts) != len(slow) {
		t.Errorf("contrasts = %d, want all %d slow-only metas", len(contrasts), len(slow))
	}
	for _, c := range contrasts {
		if !c.SlowOnly {
			t.Error("criterion must be slow-only")
		}
	}
}

func TestDiscoverContrastsRatioCriterion(t *testing.T) {
	fSlow := newFixture()
	slowG := fSlow.chain([3]trace.Duration{100 * ms, 80 * ms, 20 * ms})
	fFast := newFixture()
	fastG := fFast.chain([3]trace.Duration{10 * ms, 8 * ms, 2 * ms})

	slow, _ := EnumerateMetas(slowG, 5, 1<<20)
	fast, _ := EnumerateMetas(fastG, 5, 1<<20)

	// Same tuples in both classes; slow costs are 10x. Tslow/Tfast = 3,
	// so the ratio criterion (10 > 3) selects all of them.
	contrasts := DiscoverContrasts(slow, fast, 100*ms, 300*ms)
	if len(contrasts) != len(slow) {
		t.Fatalf("contrasts = %d, want %d", len(contrasts), len(slow))
	}
	for _, c := range contrasts {
		if c.SlowOnly {
			t.Error("common metas must use the ratio criterion")
		}
		if c.Ratio < 9.9 || c.Ratio > 10.1 {
			t.Errorf("ratio = %v, want ~10", c.Ratio)
		}
	}

	// With a higher threshold ratio (Tslow/Tfast = 20), nothing passes.
	none := DiscoverContrasts(slow, fast, 10*ms, 200*ms)
	if len(none) != 0 {
		t.Errorf("contrasts = %d, want 0 when ratio below threshold", len(none))
	}
}

func TestDiscoverPatternsSelectsAndMerges(t *testing.T) {
	f := newFixture()
	slowG := f.chain([3]trace.Duration{10 * ms, 8 * ms, 2 * ms})
	slow, _ := EnumerateMetas(slowG, 5, 1<<20)
	contrasts := DiscoverContrasts(slow, map[string]*Meta{}, 100*ms, 300*ms)

	patterns := DiscoverPatterns(slowG, contrasts)
	if len(patterns) != 1 {
		t.Fatalf("patterns = %d, want 1 (one full path)", len(patterns))
	}
	p := patterns[0]
	if p.C != 2*ms || p.N != 1 {
		t.Errorf("pattern metric C=%v N=%d", p.C, p.N)
	}
	// MaxExec is the root's max occurrence cost.
	if p.MaxExec != 10*ms {
		t.Errorf("MaxExec = %v, want root 10ms", p.MaxExec)
	}
}

func TestDiscoverPatternsNoContrastNoPattern(t *testing.T) {
	f := newFixture()
	slowG := f.chain([3]trace.Duration{10 * ms, 8 * ms, 2 * ms})
	patterns := DiscoverPatterns(slowG, nil)
	if len(patterns) != 0 {
		t.Errorf("patterns = %d, want 0 without contrasts", len(patterns))
	}
}

func TestRankingOrder(t *testing.T) {
	// Two divergent paths under one root with different leaf costs.
	f := newFixture()
	leafBig := f.run(9*ms, "se.sys!Decrypt")
	leafSmall := f.run(1*ms, "net.sys!Indicate")
	innerA := f.wait(20*ms, "fs.sys!AcquireMDU", "fs.sys!AcquireMDU", leafBig)
	innerB := f.wait(20*ms, "fs.sys!Read", "fs.sys!Read", leafSmall)
	root := f.wait(50*ms, "fv.sys!Query", "fv.sys!Query", innerA, innerB)
	g := f.agg(root)

	slow, _ := EnumerateMetas(g, 5, 1<<20)
	contrasts := DiscoverContrasts(slow, map[string]*Meta{}, 100*ms, 300*ms)
	patterns := DiscoverPatterns(g, contrasts)
	if len(patterns) != 2 {
		t.Fatalf("patterns = %d, want 2", len(patterns))
	}
	if patterns[0].AvgC() < patterns[1].AvgC() {
		t.Error("ranking not descending by average cost")
	}
	has := func(set []string, s string) bool {
		for _, x := range set {
			if x == s {
				return true
			}
		}
		return false
	}
	if !has(patterns[0].Tuple.Running, "se.sys!Decrypt") {
		t.Error("expensive path must rank first")
	}
}

func TestCoverageFunctions(t *testing.T) {
	patterns := []Pattern{
		{C: 60 * ms, N: 1, MaxExec: 400 * ms},
		{C: 30 * ms, N: 1, MaxExec: 100 * ms},
		{C: 10 * ms, N: 1, MaxExec: 50 * ms},
	}
	total := trace.Duration(200 * ms)
	if got := TTC(patterns, total); got != 0.5 {
		t.Errorf("TTC = %v, want 0.5", got)
	}
	// Only the first pattern exceeds Tslow=300ms.
	if got := ITC(patterns, 300*ms, total); got != 0.3 {
		t.Errorf("ITC = %v, want 0.3", got)
	}
	if TTC(patterns, 0) != 0 || ITC(patterns, 300*ms, 0) != 0 {
		t.Error("zero denominator must yield 0")
	}
}

func TestTopCoverage(t *testing.T) {
	// 10 patterns: the first holds 55% of the cost.
	patterns := make([]Pattern, 10)
	patterns[0] = Pattern{C: 55 * ms, N: 1}
	for i := 1; i < 10; i++ {
		patterns[i] = Pattern{C: 5 * ms, N: 1}
	}
	if got := TopCoverage(patterns, 0.10); got != 0.55 {
		t.Errorf("top-10%% = %v, want 0.55", got)
	}
	if got := TopCoverage(patterns, 1.0); got != 1.0 {
		t.Errorf("top-100%% = %v, want 1", got)
	}
	if TopCoverage(nil, 0.1) != 0 {
		t.Error("empty patterns must yield 0")
	}
	if TopCoverage(patterns, 0) != 0 {
		t.Error("zero fraction must yield 0")
	}
}

func TestTotalPathCost(t *testing.T) {
	f := newFixture()
	g := f.chain([3]trace.Duration{10 * ms, 8 * ms, 2 * ms})
	if got := TotalPathCost(g); got != 2*ms {
		t.Errorf("TotalPathCost = %v, want leaf 2ms", got)
	}
}

func TestParamsDefaults(t *testing.T) {
	var p Params
	p.ApplyDefaults()
	if p.K != 5 {
		t.Errorf("default K = %d, want 5 (the paper's setting)", p.K)
	}
	if p.MaxSegments <= 0 {
		t.Error("default MaxSegments must be positive")
	}
}

// TestMiningDeterminism: identical graphs yield byte-identical ranked
// pattern lists across repeated runs (map iteration must not leak in).
func TestMiningDeterminism(t *testing.T) {
	build := func() []Pattern {
		f := newFixture()
		leafA := f.run(9*ms, "se.sys!Decrypt")
		leafB := f.run(9*ms, "net.sys!Indicate") // same cost: tie-break matters
		innerA := f.wait(20*ms, "fs.sys!AcquireMDU", "fs.sys!AcquireMDU", leafA)
		innerB := f.wait(20*ms, "fs.sys!Read", "fs.sys!Read", leafB)
		root := f.wait(50*ms, "fv.sys!Query", "fv.sys!Query", innerA, innerB)
		g := f.agg(root)
		slow, _ := EnumerateMetas(g, 5, 1<<20)
		contrasts := DiscoverContrasts(slow, map[string]*Meta{}, 100*ms, 300*ms)
		return DiscoverPatterns(g, contrasts)
	}
	a, b := build(), build()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Tuple.Key() != b[i].Tuple.Key() || a[i].C != b[i].C {
			t.Fatalf("pattern %d differs across runs", i)
		}
	}
}

func TestDescribeEmptySets(t *testing.T) {
	p := Pattern{N: 1, C: ms}
	s := p.Describe()
	for _, want := range []string{"the measured components", "direct wake-ups", "the scenario"} {
		if !containsStr(s, want) {
			t.Errorf("Describe() = %q missing placeholder %q", s, want)
		}
	}
}

func containsStr(s, sub string) bool {
	return len(s) >= len(sub) && strings.Contains(s, sub)
}

// TestSeparatorSignaturesStayApart: a signature holding a ',' (a Go
// function with two type parameters) is one member, not two. The path
// wait{a,b} and the path wait{a} → wait{b} are distinct metas and
// distinct patterns, each with its own cost.
func TestSeparatorSignaturesStayApart(t *testing.T) {
	const a, b, ab, u, r = "x.sys!A", "x.sys!B", "x.sys!A,x.sys!B", "u.sys!U", "r.sys!R"
	f := newFixture()
	g := f.agg(
		f.wait(10*ms, ab, u, f.run(3*ms, r)),
		f.wait(20*ms, a, u, f.wait(15*ms, b, u, f.run(7*ms, r))),
	)
	metas, _ := EnumerateMetas(g, 5, 1<<20)
	joined := sigset.New([]string{ab}, []string{u}, []string{r})
	split := sigset.New([]string{a, b}, []string{u}, []string{r})
	for _, c := range []struct {
		tu   sigset.Tuple
		cost trace.Duration
	}{{joined, 3 * ms}, {split, 7 * ms}} {
		m, ok := metas[c.tu.Key()]
		if !ok || !reflect.DeepEqual(m.Tuple, c.tu) || m.C != c.cost || m.N != 1 {
			t.Errorf("meta %v = %+v, want C=%v N=1", c.tu, m, c.cost)
		}
	}

	patterns := DiscoverPatterns(g, DiscoverContrasts(metas, nil, 100*ms, 300*ms))
	if len(patterns) != 2 {
		t.Fatalf("patterns = %d, want the two paths apart", len(patterns))
	}
	if !reflect.DeepEqual(patterns[0].Tuple, split) || patterns[0].C != 7*ms ||
		!reflect.DeepEqual(patterns[1].Tuple, joined) || patterns[1].C != 3*ms {
		t.Errorf("patterns = %+v", patterns)
	}
}
