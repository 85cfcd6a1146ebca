// Package waitgraph constructs Wait Graphs (Definition 1 of the paper,
// after StackMine) from trace streams: wait events are paired with the
// unwait events that woke them, and each wait node's children are the
// events triggered by the unwaiting thread during the wait interval. The
// resulting graphs are the substrate for both impact analysis (§3) and
// causality analysis (§4).
package waitgraph

import (
	"sort"
	"sync"

	"tracescope/internal/trace"
)

// Node is one Wait-Graph node: a tracing event, plus — for wait nodes —
// the paired unwait event whose callstack supplies the unwait signature.
type Node struct {
	Event trace.EventID
	Type  trace.EventType
	Time  trace.Time
	Cost  trace.Duration
	TID   trace.ThreadID
	Stack trace.StackID

	// HasUnwait reports whether a matching unwait was found; orphan
	// waits (truncated traces) have no children.
	HasUnwait   bool
	UnwaitEvent trace.EventID
	UnwaitStack trace.StackID
	UnwaitTID   trace.ThreadID

	// Children are the events performed by the unwaiting thread within
	// this node's wait interval (only wait nodes have children).
	Children []*Node
}

// End returns the node's completion time (Time + Cost).
func (n *Node) End() trace.Time { return n.Time + trace.Time(n.Cost) }

// Graph is the Wait Graph of one scenario instance.
type Graph struct {
	Stream      *trace.Stream
	StreamIndex int
	Instance    trace.Instance
	Roots       []*Node
}

// markPool lends walks their visit-mark scratch (indexed by the node's
// event number): a walk borrows a set for its duration, so graphs of one
// stream may be walked concurrently and a Walk callback may start
// another walk.
var markPool = sync.Pool{New: func() any { return trace.NewMarks() }}

// beginWalk borrows an empty mark set sized for the graph's stream;
// return it with markPool.Put.
func (g *Graph) beginWalk() *trace.Marks {
	m := markPool.Get().(*trace.Marks)
	m.Begin(len(g.Stream.Events))
	return m
}

// NumNodes counts distinct nodes reachable from the roots.
func (g *Graph) NumNodes() int {
	m := g.beginWalk()
	defer markPool.Put(m)
	n := 0
	for _, r := range g.Roots {
		n += countNodes(m, r)
	}
	return n
}

func countNodes(m *trace.Marks, n *Node) int {
	if !m.Visit(n.Event.Index) {
		return 0
	}
	total := 1
	for _, c := range n.Children {
		total += countNodes(m, c)
	}
	return total
}

// Walk visits every distinct node reachable from the roots in depth-first
// order. The callback returns false to prune descent below a node.
func (g *Graph) Walk(fn func(n *Node, depth int) bool) {
	m := g.beginWalk()
	defer markPool.Put(m)
	for _, r := range g.Roots {
		walkNodes(m, r, 0, fn)
	}
}

func walkNodes(m *trace.Marks, n *Node, depth int, fn func(n *Node, depth int) bool) {
	if !m.Visit(n.Event.Index) || !fn(n, depth) {
		return
	}
	for _, c := range n.Children {
		walkNodes(m, c, depth+1, fn)
	}
}

// Options bound graph construction.
type Options struct {
	// MaxDepth bounds recursion through nested waits. Zero means 48.
	MaxDepth int
}

func (o *Options) applyDefaults() {
	if o.MaxDepth <= 0 {
		o.MaxDepth = 48
	}
}

// Builder constructs Wait Graphs for the scenario instances of one
// stream at a time. It indexes the stream once and caches nodes, so
// building graphs for many instances of the same stream shares work and
// yields shared *Node values for shared events (the cross-instance
// duplication that Dwaitdist measures).
//
// Everything the builder looks up while building is dense: thread IDs
// resolve through a direct table, each thread's events and the unwaits
// targeting it are int32 index lists carved from one backing array
// (counted, then filled), and the node cache is a slice over the
// stream's events. Nodes, their child lists and the graphs' root lists
// come from two arenas. All of it belongs to the builder and is used
// again for the next stream (Reset): a worker that folds a corpus with
// one builder allocates for its largest stream and then no more.
//
// A graph, and every node reachable from it, is therefore valid only
// until its builder's next Reset or Release. Between Reset and Release
// the builder holds the stream; after Release it holds nothing but its
// own zeroed memory.
type Builder struct {
	s    *trace.Stream
	si   int
	opts Options

	threads []threadIndex  // in order of first appearance
	byTID   []int32        // tid -> position in threads + 1, 0 when absent
	sparse  []sparseThread // threads whose tid is outside byTID, sorted by tid
	nodes   []*Node        // event index -> node, nil until built
	backing []int32        // every thread's two index lists

	slab arena[Node]  // the stream's nodes
	kids arena[*Node] // their child lists, and the graphs' root lists
}

// threadIndex lists one thread's event indexes, in time order.
type threadIndex struct {
	events  []int32 // events the thread performed
	unwaits []int32 // unwait events waking the thread

	nEvents, nUnwaits int // list sizes, counted before the lists are carved
}

// sparseThread locates a thread whose ID the direct table does not
// cover: a negative ID, or one at or beyond the stream's event count
// (recorders number threads from zero; real thread IDs need not be
// small, and a table sized by the largest ID would let one event
// allocate gigabytes).
type sparseThread struct {
	tid trace.ThreadID
	pos int // position in Builder.threads
}

// arena hands out runs of zeroed T from one slab and never moves what
// it handed out: when the slab is full it starts another, a chunk at a
// time, and leaves the old one to whatever still points into it. rewind
// takes everything back, zeroes it, and if the round spilled makes one
// slab that holds what it took — so an arena that has seen its largest
// round neither allocates nor grows again, and a rewound arena holds no
// pointer.
type arena[T any] struct {
	slab    []T // the current slab; its length is what has been taken from it
	spilled int // taken from slabs abandoned since the last rewind
}

// arenaChunk is the size of a slab started mid-round: one allocation per
// this many nodes, and one per this many child pointers, for as long as
// a round outgrows what the arena has learnt.
const arenaChunk = 512

// take returns the next k elements, zeroed, capped at k.
func (a *arena[T]) take(k int) []T {
	n := len(a.slab)
	if n+k > cap(a.slab) {
		a.spilled += n
		a.slab = make([]T, 0, max(k, arenaChunk))
		n = 0
	}
	a.slab = a.slab[:n+k]
	return a.slab[n : n+k : n+k]
}

func (a *arena[T]) rewind() {
	if total := a.spilled + len(a.slab); total > cap(a.slab) {
		// A quarter over what the round took: streams of one corpus differ
		// by less, so the next larger one rarely spills again.
		a.slab = make([]T, 0, total+total/4)
	} else {
		clear(a.slab)
		a.slab = a.slab[:0]
	}
	a.spilled = 0
}

// NewBuilder indexes stream si of a corpus for Wait-Graph construction:
// a new builder, Reset to the stream.
func NewBuilder(s *trace.Stream, streamIndex int, opts Options) *Builder {
	b := new(Builder)
	b.Reset(s, streamIndex, opts)
	return b
}

// Reset ends the builder's work on its current stream, if any (Release),
// and indexes stream si of a corpus in the memory that frees. Every
// graph the builder has built is invalid from here on.
func (b *Builder) Reset(s *trace.Stream, streamIndex int, opts Options) {
	b.Release()
	opts.applyDefaults()
	b.s, b.si, b.opts = s, streamIndex, opts

	maxTID := trace.NoThread
	for i := range s.Events {
		maxTID = max(maxTID, s.Events[i].TID, s.Events[i].WTID)
	}
	b.byTID = grown(b.byTID, min(int(maxTID)+1, len(s.Events)))
	b.nodes = grown(b.nodes, len(s.Events))

	// Count: find the stream's threads and size each one's two lists.
	total := len(s.Events)
	for i := range s.Events {
		e := &s.Events[i]
		b.addThread(e.TID).nEvents++
		if e.Type == trace.Unwait {
			b.addThread(e.WTID).nUnwaits++
			total++
		}
	}
	// Carve every list out of one backing array, then fill. Events are
	// time-sorted within the stream, so the lists come out time-ordered.
	b.backing = grown(b.backing, total)
	backing := b.backing
	for k := range b.threads {
		t := &b.threads[k]
		t.events, backing = backing[:0:t.nEvents], backing[t.nEvents:]
		t.unwaits, backing = backing[:0:t.nUnwaits], backing[t.nUnwaits:]
	}
	for i := range s.Events {
		e := &s.Events[i]
		t := b.thread(e.TID)
		t.events = append(t.events, int32(i))
		if e.Type == trace.Unwait {
			t = b.thread(e.WTID)
			t.unwaits = append(t.unwaits, int32(i))
		}
	}
}

// Release ends the builder's work on its stream: it drops the stream and
// zeroes every table entry and node it used, keeping the memory for the
// next Reset. Every graph the builder has built is invalid from here on.
// Releasing a released (or new) builder does nothing.
func (b *Builder) Release() {
	b.s = nil
	b.threads = b.threads[:0]
	b.sparse = b.sparse[:0]
	clear(b.byTID)
	clear(b.nodes)
	b.slab.rewind()
	b.kids.rewind()
}

// grown returns a slice of length n, s's memory when that is large
// enough; it is all zero if all of s's capacity was.
func grown[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return make([]T, n)
}

// thread returns tid's index lists, or nil when the stream never
// mentions the thread.
func (b *Builder) thread(tid trace.ThreadID) *threadIndex {
	if uint(tid) < uint(len(b.byTID)) {
		if k := b.byTID[tid]; k != 0 {
			return &b.threads[k-1]
		}
		return nil
	}
	if k, ok := b.searchSparse(tid); ok {
		return &b.threads[b.sparse[k].pos]
	}
	return nil
}

// addThread is thread, appending an empty entry for a new tid. The
// returned pointer is valid until the next addThread.
func (b *Builder) addThread(tid trace.ThreadID) *threadIndex {
	if t := b.thread(tid); t != nil {
		return t
	}
	pos := len(b.threads)
	b.threads = append(b.threads, threadIndex{})
	if uint(tid) < uint(len(b.byTID)) {
		b.byTID[tid] = int32(pos + 1)
	} else {
		k, _ := b.searchSparse(tid)
		b.sparse = append(b.sparse, sparseThread{})
		copy(b.sparse[k+1:], b.sparse[k:])
		b.sparse[k] = sparseThread{tid: tid, pos: pos}
	}
	return &b.threads[pos]
}

// searchSparse returns the position of tid in the sorted sparse list, or
// where it would be inserted.
func (b *Builder) searchSparse(tid trace.ThreadID) (int, bool) {
	k := sort.Search(len(b.sparse), func(i int) bool { return b.sparse[i].tid >= tid })
	return k, k < len(b.sparse) && b.sparse[k].tid == tid
}

// Stream returns the indexed stream, nil once released.
func (b *Builder) Stream() *trace.Stream { return b.s }

// Instance builds the Wait Graph of one scenario instance: the roots are
// the initiating thread's events within [Start, End), and wait nodes
// recursively pull in the events of the threads that woke them.
func (b *Builder) Instance(in trace.Instance) *Graph {
	g := &Graph{Stream: b.s, StreamIndex: b.si, Instance: in}
	win := b.window(in.TID, in.Start, in.End)
	n := 0
	for _, i := range win {
		if b.overlaps(i, in.Start, in.End) {
			n++
		}
	}
	if n == 0 {
		return g
	}
	g.Roots = b.kids.take(n)[:0]
	for _, i := range win {
		if b.overlaps(i, in.Start, in.End) {
			g.Roots = append(g.Roots, b.node(int(i), b.opts.MaxDepth))
		}
	}
	return g
}

// node returns the (cached) node for event index i, building its subtree
// up to the given remaining depth.
func (b *Builder) node(i, depth int) *Node {
	if n := b.nodes[i]; n != nil {
		return n
	}
	e := &b.s.Events[i]
	n := &b.slab.take(1)[0]
	n.Event = trace.EventID{Stream: b.si, Index: i}
	n.Type = e.Type
	n.Time = e.Time
	n.Cost = e.Cost
	n.TID = e.TID
	n.Stack = e.Stack
	b.nodes[i] = n // insert before recursing: diamonds hit the cache
	if e.Type != trace.Wait || depth <= 0 {
		return n
	}
	ui, ok := b.findUnwait(i)
	if !ok {
		return n
	}
	u := &b.s.Events[ui]
	n.HasUnwait = true
	n.UnwaitEvent = trace.EventID{Stream: b.si, Index: ui}
	n.UnwaitStack = u.Stack
	n.UnwaitTID = u.TID
	win := b.window(u.TID, e.Time, u.Time)
	k := 0
	for _, ci := range win {
		if int(ci) != i && b.overlaps(ci, e.Time, u.Time) {
			k++
		}
	}
	if k == 0 {
		return n
	}
	// The list is taken whole before recursing, so the subtrees' own
	// lists land after it in the arena.
	n.Children = b.kids.take(k)[:0]
	for _, ci := range win {
		if int(ci) != i && b.overlaps(ci, e.Time, u.Time) {
			n.Children = append(n.Children, b.node(int(ci), depth-1))
		}
	}
	return n
}

// findUnwait locates the unwait event that woke wait event i: the first
// unwait targeting the waiter at exactly the wait's end time.
func (b *Builder) findUnwait(i int) (int, bool) {
	e := &b.s.Events[i]
	end := e.End()
	cands := b.thread(e.TID).unwaits
	// Binary search for the first candidate with Time >= end.
	lo := sort.Search(len(cands), func(j int) bool {
		return b.s.Events[cands[j]].Time >= end
	})
	if lo < len(cands) && b.s.Events[cands[lo]].Time == end {
		return int(cands[lo]), true
	}
	return 0, false
}

// window returns a run of tid's event indexes, in time order, holding
// every event of the thread that overlaps [start, end) and possibly a
// few that do not: callers test each entry with overlaps, so no result
// slice is built.
func (b *Builder) window(tid trace.ThreadID, start, end trace.Time) []int32 {
	t := b.thread(tid)
	if t == nil {
		return nil
	}
	idxs := t.events
	// First event that could overlap: the last event starting before
	// `end`, scanned back while End() > start. Events of one thread are
	// sequential, so a linear backwards scan from the insertion point of
	// `end` is bounded by the window's event count.
	hi := sort.Search(len(idxs), func(j int) bool {
		return b.s.Events[idxs[j]].Time >= end
	})
	var lo int
	for lo = hi; lo > 0; lo-- {
		e := &b.s.Events[idxs[lo-1]]
		if e.End() <= start && e.Type != trace.Unwait {
			// Fully before the window; since per-thread events are
			// sequential, everything earlier is too.
			break
		}
	}
	return idxs[lo:hi]
}

// overlaps reports whether event i belongs in a graph over [start, end):
// it overlaps the interval and is not an unwait (unwaits pair with their
// waits instead of becoming nodes).
func (b *Builder) overlaps(i int32, start, end trace.Time) bool {
	e := &b.s.Events[i]
	return e.Type != trace.Unwait && e.Time < end && e.End() > start
}
