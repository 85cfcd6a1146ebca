package impact

import (
	"math/rand"
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

// byStreamShuffled regroups stream-major graphs with the streams in a
// seeded random order, each stream's graphs still in one run.
func byStreamShuffled(graphs []*waitgraph.Graph, seed int64) []*waitgraph.Graph {
	var runs [][]*waitgraph.Graph
	for i, g := range graphs {
		if i == 0 || g.StreamIndex != graphs[i-1].StreamIndex {
			runs = append(runs, nil)
		}
		runs[len(runs)-1] = append(runs[len(runs)-1], g)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(runs), func(i, j int) { runs[i], runs[j] = runs[j], runs[i] })
	var out []*waitgraph.Graph
	for _, run := range runs {
		out = append(out, run...)
	}
	return out
}

// TestAddGraphMatchesReference is the fold's loop body against the
// map-based reference. Four streams' graphs arrive stream by stream, the
// streams in any order, through one resolver — its signature table and
// the walk's mark set grow and shrink at the switches, and the mark
// epochs, which start just below the uint32 wrap, cross it within the
// first few graphs (the walk's) and at a partial's third stream (its
// distinct-wait set). Each graph is measured once, into one reused
// buffer, and the one measurement is added to three partials standing
// for global ⊇ scenario ⊇ slow class (every graph; two in three; half of
// those), so some streams reach the narrower scopes late or with one
// graph. After every graph each scope must equal an independent
// reference fold of its own graphs — the scopes' distinct-wait sets are
// their own, and the buffer's reuse leaks nothing from one measurement
// into the next — and a partial fed through AddGraph must equal the
// global scope. MaxDepth 2 puts the depth cut inside shared subtrees.
func TestAddGraphMatchesReference(t *testing.T) {
	filter := trace.AllDrivers()
	in := [3]func(i int) bool{
		func(int) bool { return true },
		func(i int) bool { return i%3 != 0 },
		func(i int) bool { return i%3 != 0 && i%2 == 0 },
	}
	for seed := int64(1); seed <= 30; seed++ {
		for _, depth := range []int{0, 2} {
			fc := trace.NewFilterCache(filter)
			var (
				scopes   [3]*Partial
				want     [3]Metrics
				distinct [3]map[trace.EventID]bool
				buf      []Wait
			)
			for k := range scopes {
				scopes[k], distinct[k] = NewPartial(), make(map[trace.EventID]bool)
			}
			p := NewPartial()
			for i, g := range byStreamShuffled(streamMajor(seed, waitgraph.Options{MaxDepth: depth}), seed) {
				m := Measure(g, fc, buf)
				buf = m.Waits
				for k := range scopes {
					if !in[k](i) {
						continue
					}
					scopes[k].Add(m)
					refAddGraph(&want[k], distinct[k], g, filter)
					if scopes[k].Metrics != want[k] {
						t.Fatalf("seed %d depth %d scope %d graph %d:\n got %+v\nwant %+v", seed, depth, k, i, scopes[k].Metrics, want[k])
					}
				}
				if p.AddGraph(g, fc); p.Metrics != want[0] {
					t.Fatalf("seed %d depth %d graph %d through AddGraph:\n got %+v\nwant %+v", seed, depth, i, p.Metrics, want[0])
				}
			}
			if want[0].Dwait == 0 || want[0].Drun == 0 || want[0].Dwait == want[0].Dwaitdist || want[2].Dwait == 0 {
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
// stream panics when handed another graph of it, and so does a clone
// handed a stream its original had open. The distinct-wait set is the
// partial's own, so what the resolver does in between (Forget, or a
// second resolver taking over) neither breaks a run nor needs rejecting.
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
	once := p.Metrics
	fc.Forget()
	p.AddGraph(first, fc)
	p.AddGraph(first, trace.NewFilterCache(trace.AllDrivers()))
	if p.Dwait != 3*once.Dwait || p.Dwaitdist != once.Dwaitdist {
		t.Errorf("one graph three times, across Forget and a second resolver: %+v, want 3× Dwait and 1× Dwaitdist of %+v", p.Metrics, once)
	}

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
