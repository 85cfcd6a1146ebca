package waitgraph

import (
	"reflect"
	"testing"

	"tracescope/internal/trace"
	"tracescope/internal/trace/tracetest"
)

// refBuilder is the map-based reference the dense Builder must match:
// linear scans over the whole stream, a map for the node cache.
type refBuilder struct {
	s     *trace.Stream
	nodes map[int]*refNode
}

type refNode struct {
	index    int
	unwait   int // -1 for none
	children []*refNode
}

func (r *refBuilder) window(tid trace.ThreadID, start, end trace.Time, skip int) []int {
	var out []int
	for i, e := range r.s.Events {
		if e.TID == tid && e.Type != trace.Unwait && i != skip && e.Time < end && e.End() > start {
			out = append(out, i)
		}
	}
	return out
}

func (r *refBuilder) node(i, depth int) *refNode {
	if n, ok := r.nodes[i]; ok {
		return n // depth-oblivious, like the kernel's cache
	}
	n := &refNode{index: i, unwait: -1}
	r.nodes[i] = n
	e := r.s.Events[i]
	if e.Type != trace.Wait || depth <= 0 {
		return n
	}
	for ui, u := range r.s.Events {
		if u.Type == trace.Unwait && u.WTID == e.TID && u.Time == e.End() {
			n.unwait = ui
			for _, ci := range r.window(u.TID, e.Time, u.Time, i) {
				n.children = append(n.children, r.node(ci, depth-1))
			}
			break
		}
	}
	return n
}

// sameGraph compares a kernel subtree with the reference's, visiting
// each distinct kernel node once and checking that shared events are
// shared nodes on both sides.
func sameGraph(t *testing.T, s *trace.Stream, got *Node, want *refNode, paired map[*Node]*refNode) {
	t.Helper()
	if prev, ok := paired[got]; ok {
		if prev != want {
			t.Errorf("event %d: node shared differently than in the reference", got.Event.Index)
		}
		return
	}
	paired[got] = want
	e := s.Events[want.index]
	if got.Event.Index != want.index || got.Type != e.Type || got.Time != e.Time ||
		got.Cost != e.Cost || got.TID != e.TID || got.Stack != e.Stack {
		t.Fatalf("node %+v does not describe event %d (%+v)", got, want.index, e)
	}
	if got.HasUnwait != (want.unwait >= 0) {
		t.Fatalf("event %d: HasUnwait = %v, reference unwait %d", want.index, got.HasUnwait, want.unwait)
	}
	if got.HasUnwait {
		u := s.Events[want.unwait]
		if got.UnwaitEvent.Index != want.unwait || got.UnwaitStack != u.Stack || got.UnwaitTID != u.TID {
			t.Fatalf("event %d: unwait %+v, reference event %d", want.index, got.UnwaitEvent, want.unwait)
		}
	}
	if len(got.Children) != len(want.children) {
		t.Fatalf("event %d: %d children, reference %d", want.index, len(got.Children), len(want.children))
	}
	for i := range got.Children {
		sameGraph(t, s, got.Children[i], want.children[i], paired)
	}
}

// TestBuilderMatchesReference folds random adversarial streams (chains,
// diamonds, orphans, NoStack, sparse thread IDs) through the dense
// builder and the map-based reference, at the default depth and with the
// depth cut landing inside shared subtrees.
func TestBuilderMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		for _, depth := range []int{48, 2, 1} {
			s := tracetest.RandomStream(seed, 3+int(seed%5), 8+int(seed%23))
			b := NewBuilder(s, 7, Options{MaxDepth: depth})
			ref := &refBuilder{s: s, nodes: make(map[int]*refNode)}
			paired := make(map[*Node]*refNode)
			for _, in := range s.Instances {
				g := b.Instance(in)
				roots := ref.window(in.TID, in.Start, in.End, -1)
				if len(g.Roots) != len(roots) {
					t.Fatalf("seed %d depth %d: %d roots, reference %d", seed, depth, len(g.Roots), len(roots))
				}
				distinct := make(map[int]bool)
				for i, r := range g.Roots {
					if r.Event.Stream != 7 {
						t.Fatalf("seed %d: node carries stream %d, want 7", seed, r.Event.Stream)
					}
					sameGraph(t, s, r, ref.node(roots[i], depth), paired)
				}
				g.Walk(func(n *Node, _ int) bool { distinct[n.Event.Index] = true; return true })
				if got := g.NumNodes(); got != len(distinct) {
					t.Fatalf("seed %d depth %d: NumNodes = %d, Walk visited %d distinct events", seed, depth, got, len(distinct))
				}
			}
		}
	}
}

// TestBuilderUnknownThread: an instance whose initiating thread the
// stream never mentions has an empty graph, on the dense and the sparse
// side of the thread table alike.
func TestBuilderUnknownThread(t *testing.T) {
	s := tracetest.RandomStream(3, 4, 10)
	b := NewBuilder(s, 0, Options{})
	for _, tid := range []trace.ThreadID{2, 999, 1 << 30, trace.NoThread} {
		known := false
		for _, e := range s.Events {
			known = known || e.TID == tid
		}
		g := b.Instance(trace.Instance{Scenario: "S", TID: tid, Start: 0, End: 1 << 40})
		if !known && len(g.Roots) != 0 {
			t.Errorf("unknown thread %d: %d roots, want none", tid, len(g.Roots))
		}
		if known && len(g.Roots) == 0 {
			t.Errorf("thread %d: no roots over the whole stream", tid)
		}
	}
}

// TestInstanceAllocs budgets Builder.Instance. A new builder pays for
// the Graph plus one arena slab per arenaChunk new nodes and one per
// arenaChunk new child and root pointers. A builder that has built the
// stream's graphs once and is Reset to the stream again pays for the
// Graph and nothing else — the index tables, the nodes, the child lists
// and the root list are all memory it already has.
func TestInstanceAllocs(t *testing.T) {
	s := tracetest.RandomStream(11, 8, 400)
	whole := trace.Instance{Scenario: "S", TID: 0, Start: 0, End: 1 << 40}

	b := NewBuilder(s, 0, Options{})
	g := b.Instance(whole)
	nodes, edges := 0, 0
	g.Walk(func(n *Node, _ int) bool { nodes++; edges += len(n.Children); return true })
	if nodes <= arenaChunk {
		t.Fatalf("graph has %d nodes; the test needs more than one chunk", nodes)
	}

	chunks := func(n int) float64 { return float64((n + arenaChunk - 1) / arenaChunk) }
	index := testing.AllocsPerRun(5, func() { NewBuilder(s, 0, Options{}) })
	cold := testing.AllocsPerRun(5, func() { NewBuilder(s, 0, Options{}).Instance(whole) }) - index
	// A list that does not fit a chunk's tail starts the next chunk, so
	// the pointer arena may take a chunk more than its total asks for.
	if budget := 1 + chunks(nodes) + chunks(edges+len(g.Roots)) + 1; cold > budget {
		t.Errorf("cold Instance: %v allocs for %d nodes and %d edges, want <= %v", cold, nodes, edges, budget)
	}

	b.Reset(s, 0, Options{}) // sizes the arenas for what the first round took
	warm := testing.AllocsPerRun(20, func() {
		b.Reset(s, 0, Options{})
		b.Instance(whole)
	})
	if warm != 1 {
		t.Errorf("Reset + Instance on a builder that has seen the stream: %v allocs, want 1 (the Graph)", warm)
	}
}

// sameNodes compares two subtrees field by field, pairing nodes so that
// a node shared on one side must be shared on the other.
func sameNodes(t *testing.T, got, want *Node, paired map[*Node]*Node) {
	t.Helper()
	if prev, ok := paired[got]; ok {
		if prev != want {
			t.Errorf("event %v: shared by the reused builder where the fresh one has two nodes", got.Event)
		}
		return
	}
	paired[got] = want
	g, w := *got, *want
	g.Children, w.Children = nil, nil
	if !reflect.DeepEqual(g, w) {
		t.Errorf("node differs:\n got %+v\nwant %+v", g, w)
	}
	if len(got.Children) != len(want.Children) {
		t.Fatalf("event %v: %d children, want %d", got.Event, len(got.Children), len(want.Children))
	}
	for i := range got.Children {
		sameNodes(t, got.Children[i], want.Children[i], paired)
	}
}

// TestBuilderResetMatchesNew: one builder Reset across streams of very
// different sizes — so tables shrink and grow, and the arenas spill and
// rewind — builds, for every instance, a graph node-for-node equal to a
// fresh NewBuilder's, with the same sharing, at depth bounds that cut
// inside shared subtrees (2), at the default (0) and wide open (48).
func TestBuilderResetMatchesNew(t *testing.T) {
	for _, depth := range []int{0, 2, 48} {
		opts := Options{MaxDepth: depth}
		var reused Builder
		for seed := int64(1); seed <= 24; seed++ {
			threads, steps := 3+int(seed%6), 6+int(seed*37%90)
			if seed%8 == 0 {
				steps *= 10
			}
			s := tracetest.RandomStream(seed, threads, steps)
			reused.Reset(s, int(seed), opts)
			fresh := NewBuilder(s, int(seed), opts)
			paired := make(map[*Node]*Node)
			for _, in := range s.Instances {
				got, want := reused.Instance(in), fresh.Instance(in)
				if got.Stream != s || got.StreamIndex != int(seed) || got.Instance != in {
					t.Fatalf("seed %d: graph header %+v", seed, got)
				}
				if len(got.Roots) != len(want.Roots) {
					t.Fatalf("seed %d depth %d: %d roots, want %d", seed, depth, len(got.Roots), len(want.Roots))
				}
				for i := range got.Roots {
					sameNodes(t, got.Roots[i], want.Roots[i], paired)
				}
			}
			if t.Failed() {
				t.Fatalf("seed %d depth %d: reused builder diverged", seed, depth)
			}
		}
	}
}

// TestBuilderReleaseKeepsNothing: a released builder holds no stream and
// no pointer at all — every node it used is zero again, child lists
// included — and its memory is bounded by the largest stream it has
// seen: after a stream ten times the size of the others, small streams
// neither grow it nor make it allocate.
func TestBuilderReleaseKeepsNothing(t *testing.T) {
	small := func(seed int64) *trace.Stream { return tracetest.RandomStream(seed, 5, 40) }
	build := func(b *Builder, s *trace.Stream) {
		b.Reset(s, 0, Options{})
		for _, in := range s.Instances {
			b.Instance(in)
		}
	}
	var b Builder
	build(&b, small(1))
	before := cap(b.slab.slab) + cap(b.kids.slab)

	build(&b, tracetest.RandomStream(2, 5, 400))
	b.Release()
	if b.Stream() != nil {
		t.Error("a released builder still holds its stream")
	}
	for i := range b.slab.slab[:cap(b.slab.slab)] {
		if n := &b.slab.slab[:cap(b.slab.slab)][i]; n.Children != nil || n.Event != (trace.EventID{}) {
			t.Fatalf("released builder: node %d of the slab is not zero: %+v", i, *n)
		}
	}
	for i, c := range b.kids.slab[:cap(b.kids.slab)] {
		if c != nil {
			t.Fatalf("released builder: child slot %d still points at a node", i)
		}
	}
	for i, n := range b.nodes[:cap(b.nodes)] {
		if n != nil {
			t.Fatalf("released builder: node-table slot %d still points at a node", i)
		}
	}

	build(&b, small(3)) // the first Reset after a spill sizes the arenas for the large stream
	large := cap(b.slab.slab) + cap(b.kids.slab)
	if large <= before {
		t.Fatalf("arena capacity %d after the large stream, %d before: the test needs it to have grown", large, before)
	}
	tables := cap(b.nodes) + cap(b.byTID) + cap(b.backing)
	for seed := int64(4); seed < 12; seed++ {
		s := small(seed)
		if n := testing.AllocsPerRun(1, func() { build(&b, s) }); n != float64(len(s.Instances)) {
			t.Errorf("seed %d: %v allocs folding a small stream after a large one, want one Graph per instance (%d)", seed, n, len(s.Instances))
		}
		if got := cap(b.slab.slab) + cap(b.kids.slab); got != large {
			t.Errorf("seed %d: arena capacity %d, want it to stay at the largest stream's %d", seed, got, large)
		}
		if got := cap(b.nodes) + cap(b.byTID) + cap(b.backing); got != tables {
			t.Errorf("seed %d: index-table capacity %d, want it to stay at the largest stream's %d", seed, got, tables)
		}
	}
}
