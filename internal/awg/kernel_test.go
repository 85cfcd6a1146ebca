package awg

import (
	"reflect"
	"strings"
	"testing"

	"tracescope/internal/sigset"
	"tracescope/internal/trace"
	"tracescope/internal/trace/tracetest"
	"tracescope/internal/waitgraph"
)

// refCell is one AWG node's aggregates; the reference keys cells by the
// node's whole path of sibling keys.
type refCell struct {
	C, MaxC trace.Duration
	N       int64
}

// refAdd is the map-based reference fold Aggregator.Add must match: a
// per-graph seen set over (path, event) pairs, signatures resolved frame
// by frame, a key string built at every visit.
func refAdd(cells map[string]*refCell, g *waitgraph.Graph, f *trace.ComponentFilter, maxDepth int) {
	type pathEvent struct {
		path  string
		event trace.EventID
	}
	seen := make(map[pathEvent]bool)
	var walk func(n *waitgraph.Node, path string, depth int)
	walk = func(n *waitgraph.Node, path string, depth int) {
		if depth > maxDepth {
			return
		}
		sig, ok := f.TopSignature(g.Stream, n.Stack)
		var key string
		switch {
		case n.Type == trace.Wait && !ok:
			for _, c := range n.Children {
				walk(c, path, depth+1)
			}
			return
		case n.Type == trace.Wait:
			usig := ""
			if u, ok := f.TopSignature(g.Stream, n.UnwaitStack); ok {
				usig = u
			} else if frames := g.Stream.StackStrings(n.UnwaitStack); len(frames) > 0 {
				usig = frames[0]
				for _, fr := range frames {
					if !strings.HasPrefix(fr, "kernel!") {
						usig = fr
						break
					}
				}
			}
			if !n.HasUnwait {
				usig = ""
			}
			key = "w|" + sig + "|" + usig
		case n.Type == trace.Running && ok:
			key = "r|" + sig
		case n.Type == trace.HardwareService:
			key = "h|" + sigset.HardwareSignature
		default:
			return
		}
		path += "/" + key
		if pe := (pathEvent{path, n.Event}); !seen[pe] {
			seen[pe] = true
			cell := cells[path]
			if cell == nil {
				cell = &refCell{}
				cells[path] = cell
			}
			cell.C += n.Cost
			cell.N++
			cell.MaxC = max(cell.MaxC, n.Cost)
		}
		for _, c := range n.Children {
			walk(c, path, depth+1)
		}
	}
	for _, r := range g.Roots {
		walk(r, "", 0)
	}
}

// flatten renders a forest in the reference's path-keyed form.
func flatten(g *Graph) map[string]*refCell {
	out := make(map[string]*refCell)
	var walk func(n *Node, path string)
	walk = func(n *Node, path string) {
		path += "/" + n.Key()
		out[path] = &refCell{C: n.C, N: n.N, MaxC: n.MaxC}
		for _, c := range n.Children() {
			walk(c, path)
		}
	}
	for _, r := range g.Roots() {
		walk(r, "")
	}
	return out
}

// randomGraphs builds every instance graph of two random streams of
// different sizes, interleaved so a fold switches streams at almost
// every step.
func randomGraphs(seed int64, opts waitgraph.Options) []*waitgraph.Graph {
	small := tracetest.RandomStream(seed, 3, 9)
	large := tracetest.RandomStream(seed+100, 7, 60)
	bs, bl := waitgraph.NewBuilder(small, 0, opts), waitgraph.NewBuilder(large, 1, opts)
	var out []*waitgraph.Graph
	for i := range large.Instances {
		out = append(out, bl.Instance(large.Instances[i]))
		if i < len(small.Instances) {
			out = append(out, bs.Instance(small.Instances[i]))
		}
	}
	return out
}

// TestAggregatorMatchesReference folds two streams' graphs alternately
// into two aggregators sharing one resolver (as a core fold does), each
// taking every other graph plus a common third, and compares both
// forests with the reference's. Diamonds make one event reach the same
// AWG node twice (deduplicated) and two different AWG nodes (both
// counted); a small AWG MaxDepth cuts paths short, and a Wait-Graph
// MaxDepth of 2 leaves shared subtrees cut off mid-way.
func TestAggregatorMatchesReference(t *testing.T) {
	filter := trace.AllDrivers()
	for seed := int64(1); seed <= 30; seed++ {
		for _, cfg := range []struct{ wgDepth, awgDepth int }{{0, 32}, {2, 32}, {0, 2}} {
			fc := trace.NewFilterCache(filter)
			opts := Options{MaxDepth: cfg.awgDepth}
			ags := []*Aggregator{NewAggregatorOn(fc, opts), NewAggregatorOn(fc, opts)}
			want := []map[string]*refCell{{}, {}}
			for i, g := range randomGraphs(seed, waitgraph.Options{MaxDepth: cfg.wgDepth}) {
				for k := range ags {
					if i%3 == k || i%3 == 2 {
						ags[k].Add(g)
						refAdd(want[k], g, filter, cfg.awgDepth)
					}
				}
			}
			for k := range ags {
				if got := flatten(ags[k].Finish()); !reflect.DeepEqual(got, want[k]) {
					t.Fatalf("seed %d %+v aggregator %d: forest differs from the reference\n got %d nodes\nwant %d nodes",
						seed, cfg, k, len(got), len(want[k]))
				}
				if len(want[k]) == 0 {
					t.Fatalf("seed %d: empty reference forest", seed)
				}
			}
		}
	}
}

// TestAggregatorAddAllocs: within one stream's fold, adding a graph
// whose AWG nodes all exist allocates nothing — the dedup set and the
// key buffer are the aggregator's, and a child lookup that hits builds
// no node and no key string.
func TestAggregatorAddAllocs(t *testing.T) {
	s := tracetest.RandomStream(5, 7, 60)
	b := waitgraph.NewBuilder(s, 0, waitgraph.Options{})
	var graphs []*waitgraph.Graph
	for _, in := range s.Instances {
		graphs = append(graphs, b.Instance(in))
	}
	ag := NewAggregator(trace.AllDrivers(), Options{})
	fold := func() {
		for _, g := range graphs {
			ag.Add(g)
		}
	}
	fold()
	if ag.Partial().NumNodes() == 0 {
		t.Fatal("empty forest")
	}
	if n := testing.AllocsPerRun(10, fold); n != 0 {
		t.Errorf("warmed Add fold: %v allocs per %d graphs, want 0", n, len(graphs))
	}
}

// TestAppendKeyMatchesKey: the bytes child looks a sibling up by are the
// node's Key, for every kind.
func TestAppendKeyMatchesKey(t *testing.T) {
	for _, n := range []*Node{
		{Kind: Waiting, WaitSig: "fs.sys!Acquire", UnwaitSig: "fs.sys!Release"},
		{Kind: Waiting, WaitSig: "fs.sys!Acquire"},
		{Kind: Running, RunSig: "se.sys!Decrypt"},
		{Kind: Hardware, RunSig: sigset.HardwareSignature},
	} {
		sig := n.RunSig
		if n.Kind == Waiting {
			sig = n.WaitSig
		}
		if got := string(appendKey([]byte("stale")[:0], n.Kind, sig, n.UnwaitSig)); got != n.Key() {
			t.Errorf("appendKey = %q, Key = %q", got, n.Key())
		}
	}
}
