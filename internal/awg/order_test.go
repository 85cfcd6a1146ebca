package awg

import (
	"reflect"
	"testing"

	"tracescope/internal/trace"
	"tracescope/internal/waitgraph"
)

// checkLayout fails unless g is laid out as Finish leaves it: no
// lookup; every node's subtree within its parent's, which is the node
// its parent index names; siblings in strictly increasing sibling order
// and non-decreasing Key order; each signature id naming the node's
// signature in g's sorted, duplicate-free signature table.
func checkLayout(t *testing.T, g *Graph) {
	t.Helper()
	if !g.finished || g.index != nil {
		t.Fatal("a laid-out graph is open or keeps its lookup")
	}
	for i := 1; i < len(g.sigs); i++ {
		if g.sigs[i-1] >= g.sigs[i] {
			t.Fatalf("signatures %q, %q out of order", g.sigs[i-1], g.sigs[i])
		}
	}
	nodes := g.nodes
	var level func(i, end, parent int32)
	level = func(i, end, parent int32) {
		for prev := int32(-1); i < end; prev, i = i, nodes[i].end {
			n := &nodes[i]
			if n.parent != parent || n.end <= i || n.end > end {
				t.Fatalf("node %d %q: parent %d end %d, want parent %d, end in (%d, %d]", i, n.Key(), n.parent, n.end, parent, i, end)
			}
			if prev >= 0 && (compareKeys(&nodes[prev], n) >= 0 || nodes[prev].Key() > n.Key()) {
				t.Fatalf("node %d: %q before %q", i, nodes[prev].Key(), n.Key())
			}
			for r, sig := range n.roleSigs() {
				if id := n.sigIDs[r]; (sig == "") != (id < 0) || id >= 0 && g.sigs[id] != sig {
					t.Fatalf("node %d %q: role %d id %d for %q", i, n.Key(), r, id, sig)
				}
			}
			level(i+1, n.end, i)
		}
	}
	level(0, int32(len(nodes)), -1)
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

// TestFinishStoresKeyOrder: a finished forest is laid out in Key
// order, for random forests, with and without the reduction, which
// drops roots first; an open forest is laid out afresh when read, and
// stays open.
func TestFinishStoresKeyOrder(t *testing.T) {
	reduced := false
	orderCases(t, func(label string, graphs []*waitgraph.Graph, opts Options) {
		ag := NewAggregator(trace.AllDrivers(), opts)
		for _, g := range graphs {
			ag.Add(g)
		}
		checkLayout(t, ag.Partial().laidOut())
		if ag.Partial().finished {
			t.Fatalf("%s: reading an open forest finished it", label)
		}
		g := ag.Finish()
		checkLayout(t, g)
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
	visited := 0
	var walk func(nodes []Node, i, end int32)
	walk = func(nodes []Node, i, end int32) {
		for ; i < end; i = nodes[i].End() {
			visited++
			walk(nodes, i+1, nodes[i].End())
		}
	}
	read := func() {
		nodes := g.Nodes()
		walk(nodes, 0, int32(len(nodes)))
	}
	if allocs := testing.AllocsPerRun(10, read); allocs != 0 {
		t.Errorf("an in-order walk of a finished forest allocated %v times", allocs)
	}
	if visited == 0 {
		t.Fatal("empty forest")
	}
}

// TestCloneMergeFinishOrder: a clone of a finished graph is finished and
// equal to it, one of an open graph is open; the forest clones and other
// partials merge into is laid out by its own Finish, with the graphs
// added after the merge in it too, and equals the sequential
// aggregation. Merging a finished graph as it is leaves it as it was.
func TestCloneMergeFinishOrder(t *testing.T) {
	orderCases(t, func(label string, graphs []*waitgraph.Graph, opts Options) {
		half := len(graphs) / 2
		left := NewAggregator(trace.AllDrivers(), Options{MaxDepth: opts.MaxDepth})
		for _, g := range graphs[:half] {
			left.Add(g)
		}
		open := left.Partial().Clone()
		finished := left.Finish()
		before := renderAWG(t, finished)
		clone := finished.Clone()
		if !clone.finished || !reflect.DeepEqual(clone, finished) || &clone.nodes[0] == &finished.nodes[0] {
			t.Fatalf("%s: the clone of a finished graph is not an equal finished copy", label)
		}
		if open.finished {
			t.Fatalf("%s: the clone of an open graph is finished", label)
		}

		right := NewAggregator(trace.AllDrivers(), Options{MaxDepth: opts.MaxDepth})
		for _, g := range graphs[half:] {
			right.Add(g)
		}
		final := NewAggregator(trace.AllDrivers(), opts)
		final.Merge(clone)
		final.Merge(right.Partial().Clone())
		final.Add(graphs[0])
		got := final.Finish()
		checkLayout(t, got)

		want := NewAggregator(trace.AllDrivers(), opts)
		for _, g := range append(graphs, graphs[0]) {
			want.Add(g)
		}
		if a, b := renderAWG(t, got), renderAWG(t, want.Finish()); a != b {
			t.Fatalf("%s: merged forest differs from the sequential one:\n%s\n--- want ---\n%s", label, a, b)
		}

		adopt := NewAggregator(trace.AllDrivers(), opts)
		adopt.Merge(finished)
		adopt.Merge(open)
		for _, g := range graphs[half:] {
			adopt.Add(g)
		}
		checkLayout(t, adopt.Finish())
		if after := renderAWG(t, finished); after != before {
			t.Fatalf("%s: merging a finished graph changed it", label)
		}
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
