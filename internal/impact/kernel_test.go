package impact

import (
	"testing"

	"tracescope/internal/trace"
	"tracescope/internal/trace/tracetest"
	"tracescope/internal/waitgraph"
)

// refAddGraph is the map-based reference fold AddGraph must match: a
// per-graph seen map and the filter consulted frame by frame.
func refAddGraph(m *Metrics, distinct map[trace.EventID]bool, g *waitgraph.Graph, f *trace.ComponentFilter) {
	m.Instances++
	m.Dscn += g.Instance.Duration()
	seen := make(map[trace.EventID]bool)
	var walk func(n *waitgraph.Node, covered bool)
	walk = func(n *waitgraph.Node, covered bool) {
		if seen[n.Event] {
			return
		}
		seen[n.Event] = true
		driver := f.MatchStack(g.Stream, n.Stack)
		switch {
		case n.Type == trace.Running && driver:
			m.Drun += n.Cost
		case n.Type == trace.Wait && driver && !covered:
			m.Dwait += n.Cost
			if !distinct[n.Event] {
				distinct[n.Event] = true
				m.Dwaitdist += n.Cost
			}
			covered = true
		}
		if n.Type == trace.Wait {
			for _, c := range n.Children {
				walk(c, covered)
			}
		}
	}
	for _, r := range g.Roots {
		walk(r, false)
	}
}

// twoStreams builds every instance graph of two random streams of
// different sizes and returns them interleaved, so a fold over the
// result switches streams at almost every step.
func twoStreams(seed int64, opts waitgraph.Options) []*waitgraph.Graph {
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

// TestAddGraphMatchesReference folds two streams' graphs alternately
// through one resolver — its table and marks resize at every switch,
// and the mark epoch, which starts just below the uint32 wrap, crosses
// it within the first few graphs — and compares the running metrics
// with the reference after every graph. MaxDepth 2 puts the depth cut
// inside shared subtrees.
func TestAddGraphMatchesReference(t *testing.T) {
	filter := trace.AllDrivers()
	for seed := int64(1); seed <= 30; seed++ {
		for _, depth := range []int{0, 2} {
			p, fc := NewPartial(), trace.NewFilterCache(filter)
			var want Metrics
			distinct := make(map[trace.EventID]bool)
			for i, g := range twoStreams(seed, waitgraph.Options{MaxDepth: depth}) {
				p.AddGraph(g, fc)
				refAddGraph(&want, distinct, g, filter)
				if p.Metrics != want {
					t.Fatalf("seed %d depth %d graph %d:\n got %+v\nwant %+v", seed, depth, i, p.Metrics, want)
				}
			}
			if want.Dwait == 0 || want.Drun == 0 {
				t.Fatalf("seed %d: degenerate reference metrics %+v", seed, want)
			}
		}
	}
}

// TestAddGraphAllocs: within one stream's fold, once the resolver has
// seen the stream's stacks and the distinct-wait set holds the graph's
// waits, folding a graph allocates nothing — no per-graph seen set, no
// closure, no filter-cache entry.
func TestAddGraphAllocs(t *testing.T) {
	s := tracetest.RandomStream(5, 7, 60)
	b := waitgraph.NewBuilder(s, 0, waitgraph.Options{})
	var graphs []*waitgraph.Graph
	for _, in := range s.Instances {
		graphs = append(graphs, b.Instance(in))
	}
	p, fc := NewPartial(), trace.NewFilterCache(trace.AllDrivers())
	fold := func() {
		for _, g := range graphs {
			p.AddGraph(g, fc)
		}
	}
	fold()
	if n := testing.AllocsPerRun(10, fold); n != 0 {
		t.Errorf("warmed AddGraph fold: %v allocs per %d graphs, want 0", n, len(graphs))
	}
}
