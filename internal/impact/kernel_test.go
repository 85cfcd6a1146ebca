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

// streamMajor builds every instance graph of four random streams —
// small, large, small, medium, at corpus indexes 0..3 — and returns them
// stream by stream: the order every fold feeds a Partial in.
func streamMajor(seed int64, opts waitgraph.Options) []*waitgraph.Graph {
	var out []*waitgraph.Graph
	for si, shape := range [][2]int{{3, 9}, {7, 60}, {3, 12}, {5, 30}} {
		s := tracetest.RandomStream(seed+100*int64(si), shape[0], shape[1])
		b := waitgraph.NewBuilder(s, si, opts)
		for _, in := range s.Instances {
			out = append(out, b.Instance(in))
		}
	}
	return out
}

// TestAddGraphMatchesReference folds four streams' graphs, stream by
// stream, through one resolver — its signature table and both kinds of
// mark set grow at the first switch and shrink at the second, and the
// mark epochs, which start just below the uint32 wrap, cross it within
// the first few graphs (the walk's) and at the third stream (the
// distinct-wait lease's) — and compares the running metrics with the
// reference after every graph. MaxDepth 2 puts the depth cut inside
// shared subtrees.
func TestAddGraphMatchesReference(t *testing.T) {
	filter := trace.AllDrivers()
	for seed := int64(1); seed <= 30; seed++ {
		for _, depth := range []int{0, 2} {
			p, fc := NewPartial(), trace.NewFilterCache(filter)
			var want Metrics
			distinct := make(map[trace.EventID]bool)
			for i, g := range streamMajor(seed, waitgraph.Options{MaxDepth: depth}) {
				p.AddGraph(g, fc)
				refAddGraph(&want, distinct, g, filter)
				if p.Metrics != want {
					t.Fatalf("seed %d depth %d graph %d:\n got %+v\nwant %+v", seed, depth, i, p.Metrics, want)
				}
			}
			if want.Dwait == 0 || want.Drun == 0 || want.Dwait == want.Dwaitdist {
				t.Fatalf("seed %d: degenerate reference metrics %+v", seed, want)
			}
		}
	}
}

// mustPanic runs fn and fails the test unless it panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic — Dwaitdist would have been double counted silently", what)
		}
	}()
	fn()
}

// TestPartialRejectsReopenedStream: a Partial that has moved on from a
// stream panics when handed another graph of it — whether it moved on
// by seeing another stream's graph or because the resolver did (Forget,
// as every Ingest ends) — and so does one handed a stream's graphs
// through a second resolver. One run through one resolver is the only
// way its distinct-wait set is whole.
func TestPartialRejectsReopenedStream(t *testing.T) {
	graphs := streamMajor(1, waitgraph.Options{})
	first, other := graphs[0], graphs[len(graphs)-1]
	if first.StreamIndex == other.StreamIndex {
		t.Fatal("need graphs of two streams")
	}

	p, fc := NewPartial(), trace.NewFilterCache(trace.AllDrivers())
	p.AddGraph(first, fc)
	p.AddGraph(first, fc) // the same stream, the same run: fine
	p.AddGraph(other, fc)
	mustPanic(t, "interleaved streams", func() { p.AddGraph(first, fc) })

	p, fc = NewPartial(), trace.NewFilterCache(trace.AllDrivers())
	p.AddGraph(first, fc)
	fc.Forget()
	mustPanic(t, "the same stream after Forget", func() { p.AddGraph(first, fc) })

	p, fc = NewPartial(), trace.NewFilterCache(trace.AllDrivers())
	p.AddGraph(first, fc)
	mustPanic(t, "the same stream through a second resolver", func() {
		p.AddGraph(first, trace.NewFilterCache(trace.AllDrivers()))
	})

	p, fc = NewPartial(), trace.NewFilterCache(trace.AllDrivers())
	p.AddGraph(first, fc)
	snap := p.Clone()
	mustPanic(t, "a clone handed a stream its original had open", func() { snap.AddGraph(first, fc) })
	p.AddGraph(first, fc) // the original's run goes on
	if p.Instances != 2 || snap.Instances != 1 {
		t.Errorf("instances: original %d, clone %d; want 2 and 1", p.Instances, snap.Instances)
	}
}

// TestPartialRejectsOverlappingMerge: partials that both cover a stream
// — closed in both, or still open in one — refuse to merge, and
// stream-disjoint ones merge to plain sums and then refuse each other's
// streams.
func TestPartialRejectsOverlappingMerge(t *testing.T) {
	graphs := streamMajor(2, waitgraph.Options{})
	first, other := graphs[0], graphs[len(graphs)-1]
	fold := func(gs ...*waitgraph.Graph) *Partial {
		p, fc := NewPartial(), trace.NewFilterCache(trace.AllDrivers())
		for _, g := range gs {
			p.AddGraph(g, fc)
		}
		return p
	}

	mustPanic(t, "both have the stream open", func() { fold(first).Merge(fold(first)) })
	mustPanic(t, "closed in one, open in the other", func() { fold(first, other).Merge(fold(first)) })
	mustPanic(t, "closed in both", func() { fold(first, other).Merge(fold(other, first)) })

	a, b := fold(first), fold(other)
	want := a.Metrics
	want.Instances += b.Instances
	want.Dscn += b.Dscn
	want.Dwait += b.Dwait
	want.Drun += b.Drun
	want.Dwaitdist += b.Dwaitdist
	a.Merge(b)
	a.Merge(nil)
	if a.Metrics != want {
		t.Errorf("disjoint merge: got %+v, want the sums %+v", a.Metrics, want)
	}
	fc := trace.NewFilterCache(trace.AllDrivers())
	mustPanic(t, "a merged partial handed a stream it covers", func() { a.AddGraph(other, fc) })
	mustPanic(t, "merging the same partial twice", func() { a.Merge(b) })
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
