package waitgraph

import (
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

// TestInstanceAllocs budgets Builder.Instance: the Graph and its root
// list, plus one slab chunk per nodeChunkSize new nodes and one per
// nodeChunkSize new child pointers. A graph whose nodes all exist costs
// the two and nothing else.
func TestInstanceAllocs(t *testing.T) {
	s := tracetest.RandomStream(11, 8, 400)
	whole := trace.Instance{Scenario: "S", TID: 0, Start: 0, End: 1 << 40}

	b := NewBuilder(s, 0, Options{})
	g := b.Instance(whole)
	nodes, edges := 0, 0
	g.Walk(func(n *Node, _ int) bool { nodes++; edges += len(n.Children); return true })
	if nodes < nodeChunkSize {
		t.Fatalf("graph has %d nodes; the test needs more than one chunk", nodes)
	}
	if warm := testing.AllocsPerRun(20, func() { b.Instance(whole) }); warm > 2 {
		t.Errorf("Instance over built nodes: %v allocs, want <= 2", warm)
	}

	chunks := func(n int) float64 { return float64((n + nodeChunkSize - 1) / nodeChunkSize) }
	index := testing.AllocsPerRun(5, func() { NewBuilder(s, 0, Options{}) })
	cold := testing.AllocsPerRun(5, func() { NewBuilder(s, 0, Options{}).Instance(whole) }) - index
	if budget := 2 + chunks(nodes) + chunks(edges); cold > budget {
		t.Errorf("cold Instance: %v allocs for %d nodes and %d edges, want <= %v", cold, nodes, edges, budget)
	}
}
