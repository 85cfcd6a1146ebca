package awg

import (
	"testing"

	"tracescope/internal/trace"
	"tracescope/internal/waitgraph"
)

// orderWant is what checkOrder requires of a forest's stored order.
type orderWant int

const (
	sortedAfresh orderWant = iota // nothing stored: every list sorted per call
	storedOrder                   // every list the one Finish stored
	eitherOrder                   // some stored, some sorted per call
)

// checkOrder walks a forest through Roots and Children and fails unless
// every sibling list is its map's nodes — the very nodes, not copies or
// another forest's — in strictly increasing key order, and stored as
// want says.
func checkOrder(t *testing.T, label string, g *Graph, want orderWant) {
	t.Helper()
	var level func(path string, got []*Node, m map[string]*Node, order []*Node)
	level = func(path string, got []*Node, m map[string]*Node, order []*Node) {
		if len(got) != len(m) {
			t.Fatalf("%s %s: %d nodes in order, %d in the map", label, path, len(got), len(m))
		}
		if want == storedOrder && len(got) > 0 && &got[0] != &order[0] {
			t.Fatalf("%s %s: order not the one Finish stored", label, path)
		}
		for i, n := range got {
			key := n.Key()
			if i > 0 && got[i-1].Key() >= key {
				t.Fatalf("%s %s: %q before %q", label, path, got[i-1].Key(), key)
			}
			if m[key] != n {
				t.Fatalf("%s %s/%s: ordered node is not the map's", label, path, key)
			}
			if has := want == storedOrder && len(n.children) > 0; want != eitherOrder && (n.kids != nil) != has {
				t.Fatalf("%s %s/%s: stored order %v, want %v", label, path, key, n.kids != nil, has)
			}
			level(path+"/"+key, n.Children(), n.children, n.kids)
		}
	}
	level("", g.Roots(), g.roots, g.order)
}

// orderCases are forests of random graphs, one per seed, under the
// options a query finishes with (reduction on) and without reduction.
func orderCases(t *testing.T, each func(label string, graphs []*waitgraph.Graph, opts Options)) {
	for seed := int64(1); seed <= 20; seed++ {
		graphs := randomGraphs(seed, waitgraph.Options{})
		for _, opts := range []Options{DefaultOptions(), {}, {MaxDepth: 2, Reduce: true}} {
			each(t.Name(), graphs, opts)
		}
	}
}

// TestFinishStoresKeyOrder: a finished forest's Roots and Children are
// the key order Finish stored, for random forests, with and without the
// reduction, which drops roots first.
func TestFinishStoresKeyOrder(t *testing.T) {
	reduced := false
	orderCases(t, func(label string, graphs []*waitgraph.Graph, opts Options) {
		ag := NewAggregator(trace.AllDrivers(), opts)
		for _, g := range graphs {
			ag.Add(g)
		}
		checkOrder(t, label+" unfinished", ag.Partial(), sortedAfresh)
		g := ag.Finish()
		checkOrder(t, label, g, storedOrder)
		reduced = reduced || g.ReducedCost > 0
	})
	if !reduced {
		t.Fatal("no random forest lost a root to the reduction")
	}
}

// TestFinishedOrderReadsWithoutAllocating: walking a finished forest in
// order sorts nothing and allocates nothing.
func TestFinishedOrderReadsWithoutAllocating(t *testing.T) {
	g := bigForest()
	nodes := 0
	var walk func([]*Node)
	walk = func(level []*Node) {
		for _, n := range level {
			nodes++
			walk(n.Children())
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { walk(g.Roots()) }); allocs != 0 {
		t.Errorf("an in-order walk of a finished forest allocated %v times", allocs)
	}
	if nodes == 0 {
		t.Fatal("empty forest")
	}
}

// TestCloneMergeFinishOrder: a clone of a finished graph carries no
// stored order — its lists are its own nodes, sorted afresh — and the
// forest its clones and other partials merge into is ordered afresh by
// its own Finish, with the graphs added after the merge in it too. A
// finished graph merged without cloning never has a stale order read.
func TestCloneMergeFinishOrder(t *testing.T) {
	orderCases(t, func(label string, graphs []*waitgraph.Graph, opts Options) {
		half := len(graphs) / 2
		left := NewAggregator(trace.AllDrivers(), opts)
		for _, g := range graphs[:half] {
			left.Add(g)
		}
		finished := left.Finish()
		clone := finished.Clone()
		if clone.order != nil {
			t.Fatalf("%s: clone carries the original's root order", label)
		}
		checkOrder(t, label+" clone", clone, sortedAfresh)

		right := NewAggregator(trace.AllDrivers(), Options{MaxDepth: opts.MaxDepth})
		for _, g := range graphs[half:] {
			right.Add(g)
		}
		final := NewAggregator(trace.AllDrivers(), opts)
		final.Merge(clone)
		final.Merge(right.Partial().Clone())
		final.Add(graphs[0])
		checkOrder(t, label+" merged", final.Partial(), sortedAfresh)
		checkOrder(t, label+" merged", final.Finish(), storedOrder)
		checkOrder(t, label+" original", finished, storedOrder)

		// Merged as it is, the finished graph lends its nodes, stored
		// order and all, to a forest that grows their sibling maps: a
		// grown map's order is not read.
		adopt := NewAggregator(trace.AllDrivers(), Options{MaxDepth: opts.MaxDepth})
		adopt.Merge(finished)
		for _, g := range graphs[half:] {
			adopt.Add(g)
		}
		checkOrder(t, label+" adopted", adopt.Partial(), eitherOrder)
	})
}

// TestChangeAfterFinishPanics: Add and Merge on a finished aggregator
// panic rather than leave a graph whose stored order misses nodes.
func TestChangeAfterFinishPanics(t *testing.T) {
	graphs := caseGraphs(t)
	for name, change := range map[string]func(*Aggregator){
		"Add":   func(ag *Aggregator) { ag.Add(graphs[0]) },
		"Merge": func(ag *Aggregator) { ag.Merge(Aggregate(graphs, trace.AllDrivers(), Options{}).Clone()) },
	} {
		ag := NewAggregator(trace.AllDrivers(), DefaultOptions())
		ag.Add(graphs[1])
		ag.Finish()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after Finish did not panic", name)
				}
			}()
			change(ag)
		}()
	}
}
