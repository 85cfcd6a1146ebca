// Package waitgraph constructs Wait Graphs (Definition 1 of the paper,
// after StackMine) from trace streams: wait events are paired with the
// unwait events that woke them, and each wait node's children are the
// events triggered by the unwaiting thread during the wait interval. The
// resulting graphs are the substrate for both impact analysis (§3) and
// causality analysis (§4).
package waitgraph

import (
	"sort"

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

// NumNodes counts distinct nodes reachable from the roots.
func (g *Graph) NumNodes() int {
	seen := make(map[trace.EventID]bool)
	var walk func(n *Node)
	walk = func(n *Node) {
		if seen[n.Event] {
			return
		}
		seen[n.Event] = true
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, r := range g.Roots {
		walk(r)
	}
	return len(seen)
}

// Walk visits every distinct node reachable from the roots in depth-first
// order. The callback returns false to prune descent below a node.
func (g *Graph) Walk(fn func(n *Node, depth int) bool) {
	seen := make(map[trace.EventID]bool)
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		if seen[n.Event] {
			return
		}
		seen[n.Event] = true
		if !fn(n, depth) {
			return
		}
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	for _, r := range g.Roots {
		walk(r, 0)
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
// stream. It indexes the stream once and caches nodes, so building graphs
// for many instances of the same stream shares work and yields shared
// *Node values for shared events (the cross-instance duplication that
// Dwaitdist measures).
//
// Nodes come from a slab allocated a chunk at a time, so a stream costs
// one heap object per nodeChunkSize events instead of one per event.
type Builder struct {
	s    *trace.Stream
	si   int
	opts Options

	byThread       map[trace.ThreadID][]int
	unwaitByTarget map[trace.ThreadID][]int

	nodes map[int]*Node // event index -> node

	slab []Node // unallocated tail of the current node chunk
}

// nodeChunkSize is the slab granularity: one allocation per this many
// nodes.
const nodeChunkSize = 512

// NewBuilder indexes stream si of a corpus for Wait-Graph construction.
func NewBuilder(s *trace.Stream, streamIndex int, opts Options) *Builder {
	opts.applyDefaults()
	b := &Builder{
		s:              s,
		si:             streamIndex,
		opts:           opts,
		byThread:       make(map[trace.ThreadID][]int),
		unwaitByTarget: make(map[trace.ThreadID][]int),
		nodes:          make(map[int]*Node),
	}
	for i, e := range s.Events {
		b.byThread[e.TID] = append(b.byThread[e.TID], i)
		if e.Type == trace.Unwait {
			b.unwaitByTarget[e.WTID] = append(b.unwaitByTarget[e.WTID], i)
		}
	}
	// Events are time-sorted within the stream, so the per-thread index
	// lists are already time-ordered.
	return b
}

// alloc returns a zeroed node from the slab, growing it a chunk at a
// time.
func (b *Builder) alloc() *Node {
	if len(b.slab) == 0 {
		b.slab = make([]Node, nodeChunkSize)
	}
	n := &b.slab[0]
	b.slab = b.slab[1:]
	return n
}

// Stream returns the indexed stream.
func (b *Builder) Stream() *trace.Stream { return b.s }

// Instance builds the Wait Graph of one scenario instance: the roots are
// the initiating thread's events within [Start, End), and wait nodes
// recursively pull in the events of the threads that woke them.
func (b *Builder) Instance(in trace.Instance) *Graph {
	g := &Graph{Stream: b.s, StreamIndex: b.si, Instance: in}
	for _, i := range b.eventsInWindow(in.TID, in.Start, in.End) {
		e := b.s.Events[i]
		if e.Type == trace.Unwait {
			continue
		}
		g.Roots = append(g.Roots, b.node(i, b.opts.MaxDepth))
	}
	return g
}

// node returns the (cached) node for event index i, building its subtree
// up to the given remaining depth.
func (b *Builder) node(i, depth int) *Node {
	if n, ok := b.nodes[i]; ok {
		return n
	}
	e := b.s.Events[i]
	n := b.alloc()
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
	u := b.s.Events[ui]
	n.HasUnwait = true
	n.UnwaitEvent = trace.EventID{Stream: b.si, Index: ui}
	n.UnwaitStack = u.Stack
	n.UnwaitTID = u.TID
	for _, ci := range b.eventsInWindow(u.TID, e.Time, u.Time) {
		ce := b.s.Events[ci]
		if ce.Type == trace.Unwait || ci == i {
			continue
		}
		n.Children = append(n.Children, b.node(ci, depth-1))
	}
	return n
}

// findUnwait locates the unwait event that woke wait event i: the first
// unwait targeting the waiter at exactly the wait's end time.
func (b *Builder) findUnwait(i int) (int, bool) {
	e := b.s.Events[i]
	end := e.End()
	cands := b.unwaitByTarget[e.TID]
	// Binary search for the first candidate with Time >= end.
	lo := sort.Search(len(cands), func(j int) bool {
		return b.s.Events[cands[j]].Time >= end
	})
	for _, ci := range cands[lo:] {
		u := b.s.Events[ci]
		if u.Time != end {
			break
		}
		return ci, true
	}
	return 0, false
}

// eventsInWindow returns the indexes of tid's events overlapping
// [start, end), in time order.
func (b *Builder) eventsInWindow(tid trace.ThreadID, start, end trace.Time) []int {
	idxs := b.byThread[tid]
	// First event that could overlap: the last event starting before
	// `end`, scanned back while End() > start. Events of one thread are
	// sequential, so a linear backwards scan from the insertion point of
	// `end` is bounded by the window's event count.
	hi := sort.Search(len(idxs), func(j int) bool {
		return b.s.Events[idxs[j]].Time >= end
	})
	var lo int
	for lo = hi; lo > 0; lo-- {
		e := b.s.Events[idxs[lo-1]]
		if e.End() <= start && e.Type != trace.Unwait {
			// Fully before the window; since per-thread events are
			// sequential, everything earlier is too.
			break
		}
	}
	var out []int
	for _, i := range idxs[lo:hi] {
		e := b.s.Events[i]
		if e.Time < end && e.End() > start {
			out = append(out, i)
		}
	}
	return out
}

// BuildAll constructs builders for every stream of a corpus.
func BuildAll(c *trace.Corpus, opts Options) []*Builder {
	out := make([]*Builder, len(c.Streams))
	for i, s := range c.Streams {
		out[i] = NewBuilder(s, i, opts)
	}
	return out
}
