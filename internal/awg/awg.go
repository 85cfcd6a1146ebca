// Package awg implements the Aggregated Wait Graph (Definitions 2 and 3 of
// the paper) and Algorithm 1: the per-class data abstraction of the
// causality analysis. Wait Graphs of one contrast class are aggregated by
// common signature prefixes into a forest whose inner nodes are
// wait/unwait signature pairs and whose leaves are running or
// hardware-service signatures, each carrying an aggregated cost C, an
// occurrence count N, and the maximum single-execution cost.
package awg

import (
	"sort"
	"strings"

	"tracescope/internal/sigset"
	"tracescope/internal/trace"
	"tracescope/internal/waitgraph"
)

// Kind discriminates the three node statuses of Definition 2.
type Kind uint8

// Node kinds: waiting (wait/unwait pair), running, hardware service.
const (
	Waiting Kind = iota
	Running
	Hardware
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Waiting:
		return "waiting"
	case Running:
		return "running"
	case Hardware:
		return "hardware"
	default:
		return "?"
	}
}

// Node is one Aggregated-Wait-Graph node.
type Node struct {
	Kind Kind
	// WaitSig and UnwaitSig are set for waiting nodes (v.w and v.u of
	// Definition 3).
	WaitSig   string
	UnwaitSig string
	// RunSig is set for running nodes (v.r) and is the dummy
	// sigset.HardwareSignature for hardware nodes (v.h).
	RunSig string

	// C is the aggregated execution cost (v.C), N the occurrence count
	// (v.N), and MaxC the largest single-occurrence cost — used by the
	// automated high-impact rule of §5.2.1.
	C    trace.Duration
	N    int64
	MaxC trace.Duration

	children map[string]*Node
	// kids holds children in key order once Finish has run; until then,
	// and in a Clone, it is nil.
	kids []*Node
}

// Key canonically identifies the node's signatures within its siblings:
// "w|wait|unwait" for waiting nodes, "r|sig" for running nodes and
// "h|sig" for hardware nodes.
func (n *Node) Key() string {
	switch n.Kind {
	case Waiting:
		return "w|" + n.WaitSig + "|" + n.UnwaitSig
	case Running:
		return "r|" + n.RunSig
	default:
		return "h|" + n.RunSig
	}
}

// appendKey appends to buf the Key of a node of the given kind, where
// sig is a waiting node's wait signature or another node's run
// signature, and usig a waiting node's unwait signature. It is Key for
// a node that may not exist yet: Aggregator.child looks the bytes up
// without building a string (TestAppendKeyMatchesKey).
func appendKey(buf []byte, kind Kind, sig, usig string) []byte {
	switch kind {
	case Waiting:
		buf = append(buf, "w|"...)
		buf = append(buf, sig...)
		buf = append(buf, '|')
		return append(buf, usig...)
	case Running:
		buf = append(buf, "r|"...)
	default:
		buf = append(buf, "h|"...)
	}
	return append(buf, sig...)
}

// Children returns the node's children sorted by Key (deterministic).
// On a finished graph this is the order Finish stored, shared by every
// caller, which must not modify it.
func (n *Node) Children() []*Node { return inOrder(n.kids, n.children) }

// inOrder returns a sibling map's nodes in key order: order, when it is
// that (Finish stored it and the map has not grown since), else the
// map sorted afresh. A sibling map loses entries only to reduce, which
// runs before Finish orders anything, so an order as long as its map
// holds the map's nodes.
func inOrder(order []*Node, m map[string]*Node) []*Node {
	if len(order) == len(m) {
		return order
	}
	return sortedByKey(m)
}

// sortedByKey returns a sibling map's nodes in key order. Every sibling
// map is keyed by its nodes' Keys (child, mergeForest and cloneNodes
// keep it so), so sorting the map's keys sorts the nodes without
// building a Key per comparison.
func sortedByKey(m map[string]*Node) []*Node {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*Node, len(keys))
	for i, k := range keys {
		out[i] = m[k]
	}
	return out
}

// setOrder stores the key order of a sibling map's nodes and, below
// them, of every inner node's children, and returns the map's own.
func setOrder(m map[string]*Node) []*Node {
	nodes := sortedByKey(m)
	for _, n := range nodes {
		if len(n.children) > 0 {
			n.kids = setOrder(n.children)
		}
	}
	return nodes
}

// AvgC returns the node's average cost per occurrence.
func (n *Node) AvgC() trace.Duration {
	if n.N == 0 {
		return 0
	}
	return n.C / trace.Duration(n.N)
}

// Graph is an Aggregated Wait Graph (a forest keyed by root signature).
type Graph struct {
	roots map[string]*Node
	order []*Node // roots in key order, set by Finish like Node.kids

	// Reduction accounting (§5.2.2): cost removed as non-optimizable
	// wait→hardware-only portions, and the cost kept.
	ReducedCost trace.Duration
	KeptCost    trace.Duration
}

// Roots returns the forest roots sorted by Key. On a finished graph this
// is the order Finish stored, shared by every caller, which must not
// modify it.
func (g *Graph) Roots() []*Node { return inOrder(g.order, g.roots) }

// NumNodes counts all nodes in the forest.
func (g *Graph) NumNodes() int {
	n := 0
	var walk func(*Node)
	walk = func(v *Node) {
		n++
		for _, c := range v.children {
			walk(c)
		}
	}
	for _, r := range g.roots {
		walk(r)
	}
	return n
}

// Options bound aggregation.
type Options struct {
	// MaxDepth bounds aggregated path depth. Zero means 32.
	MaxDepth int
	// Reduce prunes non-optimizable wait→hardware-only roots
	// (ReduceAWG, Algorithm 1 line 15). Disable only for ablations.
	Reduce bool
}

func (o *Options) applyDefaults() {
	if o.MaxDepth <= 0 {
		o.MaxDepth = 32
	}
}

// DefaultOptions returns the paper's configuration (reduction on).
func DefaultOptions() Options { return Options{Reduce: true} }

// Aggregate runs Algorithm 1 over the Wait Graphs of one contrast class:
// eliminate component-irrelevant nodes, merge wait/unwait pairs (already
// paired during Wait-Graph construction), aggregate paths by common
// signature prefix, and reduce non-optimizable portions. It is the
// all-at-once form of Aggregator.
func Aggregate(graphs []*waitgraph.Graph, filter *trace.ComponentFilter, opts Options) *Graph {
	ag := NewAggregator(filter, opts)
	for _, wg := range graphs {
		ag.Add(wg)
	}
	return ag.Finish()
}

// nodeEvent dedups accumulation of one trace event into one AWG node
// within a single source Wait Graph (shared subtrees in the Wait-Graph
// DAG must not double-count). The pair is the unit: one event may land
// in two AWG nodes when two paths to it aggregate differently, so marks
// indexed by event alone could not express it.
type nodeEvent struct {
	node  *Node
	event trace.EventID
}

// walk merges a Wait-Graph subtree of stream s into the AWG under parent
// (nil means top level). Component-irrelevant wait nodes are
// transparent: their children attach to the current parent, which
// realises the irrelevant-node elimination of Algorithm 1 along whole
// paths, not just at the roots.
func (ag *Aggregator) walk(s *trace.Stream, n *waitgraph.Node, parent *Node, depth int) {
	if depth > ag.opts.MaxDepth {
		return
	}
	switch n.Type {
	case trace.Wait:
		wsig, ok := ag.filter.TopSignature(s, n.Stack)
		if !ok {
			// Irrelevant wait: pass through to children.
			for _, c := range n.Children {
				ag.walk(s, c, parent, depth+1)
			}
			return
		}
		node := ag.child(parent, Waiting, wsig, ag.unwaitSig(s, n))
		ag.accumulate(node, n)
		for _, c := range n.Children {
			ag.walk(s, c, node, depth+1)
		}

	case trace.Running:
		rsig, ok := ag.filter.TopSignature(s, n.Stack)
		if !ok {
			return
		}
		ag.accumulate(ag.child(parent, Running, rsig, ""), n)

	case trace.HardwareService:
		ag.accumulate(ag.child(parent, Hardware, sigset.HardwareSignature, ""), n)
	}
}

// unwaitSig derives the unwait signature of a paired wait node: the
// topmost component signature on the unwaiting callstack, falling back to
// the first non-kernel frame (hardware completions, app-level releases).
func (ag *Aggregator) unwaitSig(s *trace.Stream, n *waitgraph.Node) string {
	if !n.HasUnwait {
		return ""
	}
	if sig, ok := ag.filter.TopSignature(s, n.UnwaitStack); ok {
		return sig
	}
	frames := s.Stack(n.UnwaitStack)
	for _, f := range frames {
		if frame := s.Frame(f); !strings.HasPrefix(frame, "kernel!") {
			return frame
		}
	}
	if len(frames) > 0 {
		return s.Frame(frames[0])
	}
	return ""
}

// child finds or inserts, under parent (or the root set), the node of
// the given kind and signatures: sig is the wait signature of a waiting
// node and the run signature otherwise, usig a waiting node's unwait
// signature. The sibling key is assembled in a reused buffer and looked
// up without conversion, so only a new node allocates.
func (ag *Aggregator) child(parent *Node, kind Kind, sig, usig string) *Node {
	m := ag.g.roots
	if parent != nil {
		if parent.children == nil {
			parent.children = make(map[string]*Node)
		}
		m = parent.children
	}
	ag.key = appendKey(ag.key[:0], kind, sig, usig)
	if n, ok := m[string(ag.key)]; ok {
		return n
	}
	n := &Node{Kind: kind}
	if kind == Waiting {
		n.WaitSig, n.UnwaitSig = sig, usig
	} else {
		n.RunSig = sig
	}
	m[string(ag.key)] = n
	return n
}

// accumulate folds one trace event's metrics into an AWG node, once per
// (node, event) pair per source graph.
func (ag *Aggregator) accumulate(node *Node, n *waitgraph.Node) {
	k := nodeEvent{node: node, event: n.Event}
	if _, dup := ag.seen[k]; dup {
		return
	}
	ag.seen[k] = struct{}{}
	node.C += n.Cost
	node.N++
	if n.Cost > node.MaxC {
		node.MaxC = n.Cost
	}
}

// reduce prunes root waiting nodes whose entire subtree is a single
// hardware-service leaf: hardware cost not propagated to any other
// component, which developers cannot optimise (§4.2.2, §5.2.2).
func (g *Graph) reduce() {
	for key, root := range g.roots {
		if root.hardwareOnly() {
			g.ReducedCost += root.C
			delete(g.roots, key)
			continue
		}
		g.KeptCost += root.C
	}
}

// hardwareOnly reports whether n is a waiting node whose only child is a
// hardware-service leaf.
func (n *Node) hardwareOnly() bool {
	if n.Kind != Waiting || len(n.children) != 1 {
		return false
	}
	for _, only := range n.children {
		return only.Kind == Hardware && len(only.children) == 0
	}
	return false
}

// TotalCost sums root costs (after any reduction).
func (g *Graph) TotalCost() trace.Duration {
	var c trace.Duration
	for _, r := range g.roots {
		c += r.C
	}
	return c
}
