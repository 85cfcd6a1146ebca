// Package awg implements the Aggregated Wait Graph (Definitions 2 and 3 of
// the paper) and Algorithm 1: the per-class data abstraction of the
// causality analysis. Wait Graphs of one contrast class are aggregated by
// common signature prefixes into a forest whose inner nodes are
// wait/unwait signature pairs and whose leaves are running or
// hardware-service signatures, each carrying an aggregated cost C, an
// occurrence count N, and the maximum single-execution cost.
package awg

import (
	"cmp"
	"slices"
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

	parent int32    // the parent's index in the forest, -1 for a root
	end    int32    // set by Finish: the index just past the subtree
	sigIDs [3]int32 // set by Finish: wait, unwait and run ids, -1 if absent
}

// Key canonically names the node's signatures: "w|wait|unwait" for
// waiting nodes, "r|sig" for running nodes and "h|sig" for hardware
// nodes. Siblings are ordered by it. A '|' inside a signature can make
// two waiting nodes' Keys equal, so nodes are looked up by their
// signatures, never by Key.
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

// End returns the index in Graph.Nodes just past the node's subtree.
func (n *Node) End() int32 { return n.end }

// SigIDs returns the ids (Graph.Sigs) of the node's wait, unwait and
// run signatures, in the order of sigset.Tuple's sets; a signature the
// node lacks is -1.
func (n *Node) SigIDs() [3]int32 { return n.sigIDs }

// AvgC returns the node's average cost per occurrence.
func (n *Node) AvgC() trace.Duration {
	if n.N == 0 {
		return 0
	}
	return n.C / trace.Duration(n.N)
}

// compareKeys orders siblings by the bytes of their Keys, and two
// waiting nodes whose Keys are equal by WaitSig.
func compareKeys(a, b *Node) int {
	if a.Kind != b.Kind {
		return cmp.Compare(b.Kind, a.Kind) // "h|" < "r|" < "w|"
	}
	if a.Kind != Waiting {
		return strings.Compare(a.RunSig, b.RunSig)
	}
	if c := compareJoined(a, b); c != 0 {
		return c
	}
	return strings.Compare(a.WaitSig, b.WaitSig)
}

// compareJoined compares a.WaitSig+"|"+a.UnwaitSig with b's, without
// building either.
func compareJoined(a, b *Node) int {
	x := [3]string{a.WaitSig, "|", a.UnwaitSig}
	y := [3]string{b.WaitSig, "|", b.UnwaitSig}
	for i, j := 0, 0; ; {
		for ; i < 2 && x[i] == ""; i++ {
		}
		for ; j < 2 && y[j] == ""; j++ {
		}
		n := min(len(x[i]), len(y[j]))
		if n == 0 { // one side has run out
			return cmp.Compare(len(x[i]), len(y[j]))
		}
		if c := strings.Compare(x[i][:n], y[j][:n]); c != 0 {
			return c
		}
		x[i], y[j] = x[i][n:], y[j][n:]
	}
}

// Graph is an Aggregated Wait Graph: a forest held as one slab of
// nodes. While it is open (an Aggregator's Partial, or a Clone of one)
// nodes are in insertion order, parents before children, and index
// finds a child by its parent and signatures; it is built when a node is
// first looked up. Finish lays the slab out in pre-order, siblings in
// Key order, interns the signatures and drops index: a finished graph is
// read, never grown.
type Graph struct {
	nodes    []Node
	index    map[childKey]int32
	sigs     []string // set by Finish: the signatures by id, sorted
	finished bool

	// Reduction accounting (§5.2.2): cost removed as non-optimizable
	// wait→hardware-only portions, and the cost kept.
	ReducedCost trace.Duration
	KeptCost    trace.Duration
}

// childKey identifies a node among its siblings: sig is a waiting
// node's wait signature and any other node's run signature, usig a
// waiting node's unwait signature.
type childKey struct {
	parent    int32
	kind      Kind
	sig, usig string
}

// keyUnder returns n's childKey below parent.
func (n *Node) keyUnder(parent int32) childKey {
	if n.Kind == Waiting {
		return childKey{parent, Waiting, n.WaitSig, n.UnwaitSig}
	}
	return childKey{parent: parent, kind: n.Kind, sig: n.RunSig}
}

// child finds or inserts the node k names and returns its index.
func (g *Graph) child(k childKey) int32 {
	if g.index == nil {
		g.index = make(map[childKey]int32, len(g.nodes))
		for i := range g.nodes {
			g.index[g.nodes[i].keyUnder(g.nodes[i].parent)] = int32(i)
		}
	}
	if i, ok := g.index[k]; ok {
		return i
	}
	i := int32(len(g.nodes))
	n := Node{Kind: k.kind, parent: k.parent}
	if k.kind == Waiting {
		n.WaitSig, n.UnwaitSig = k.sig, k.usig
	} else {
		n.RunSig = k.sig
	}
	g.nodes = append(g.nodes, n)
	g.index[k] = i
	return i
}

// Nodes returns the forest in pre-order, siblings in Key order: node
// i's subtree is nodes[i:nodes[i].End()], so its first child, if any,
// is i+1 and each further child starts at its predecessor's End. A
// finished graph returns the slab Finish laid out, shared by every
// caller, which must not modify it; an open one is laid out afresh.
func (g *Graph) Nodes() []Node { return g.laidOut().nodes }

// Sigs returns the signatures the nodes' SigIDs name, by id. Ids follow
// sort order, so a sorted id set names a sorted signature set.
func (g *Graph) Sigs() []string { return g.laidOut().sigs }

// laidOut returns g once finished, else an unreduced laid-out copy.
func (g *Graph) laidOut() *Graph {
	if g.finished {
		return g
	}
	c := &Graph{nodes: g.nodes}
	c.layout(false)
	return c
}

// NumNodes counts all nodes in the forest.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// TotalCost sums root costs (after any reduction).
func (g *Graph) TotalCost() trace.Duration {
	var c trace.Duration
	for i := range g.nodes {
		if g.nodes[i].parent < 0 {
			c += g.nodes[i].C
		}
	}
	return c
}

// layout is Finish's one pass over the forest. It lays the nodes out in
// pre-order, siblings in Key order, with each node's subtree end and its
// parent's new index; with reduce it drops the non-optimizable roots
// (ReduceAWG, Algorithm 1 line 15): waiting roots whose only child is a
// hardware-service leaf — hardware cost not propagated to any other
// component, which developers cannot optimise (§4.2.2, §5.2.2). Then it
// interns the signatures in sort order and drops index.
func (g *Graph) layout(reduce bool) {
	g.finished = true
	old := g.nodes
	// byParent holds the nodes by (parent, Key), so node p's children are
	// byParent[first[p+1]:first[p+2]], and the roots (parent -1) come first.
	byParent := make([]int32, len(old))
	first := make([]int32, len(old)+2)
	for i := range old {
		byParent[i] = int32(i)
		first[old[i].parent+2]++
	}
	for i := 1; i < len(first); i++ {
		first[i] += first[i-1]
	}
	slices.SortFunc(byParent, func(a, b int32) int {
		if c := cmp.Compare(old[a].parent, old[b].parent); c != 0 {
			return c
		}
		return compareKeys(&old[a], &old[b])
	})
	children := func(p int32) []int32 { return byParent[first[p+1]:first[p+2]] }
	hardwareOnly := func(p int32) bool {
		kids := children(p)
		return old[p].Kind == Waiting && len(kids) == 1 &&
			old[kids[0]].Kind == Hardware && len(children(kids[0])) == 0
	}

	nodes := make([]Node, 0, len(old))
	var place func(p, at int32)
	place = func(p, at int32) {
		for _, o := range children(p) {
			if p < 0 && reduce {
				if hardwareOnly(o) {
					g.ReducedCost += old[o].C
					continue
				}
				g.KeptCost += old[o].C
			}
			i := int32(len(nodes))
			nodes = append(nodes, old[o])
			nodes[i].parent = at
			place(o, i)
			nodes[i].end = int32(len(nodes))
		}
	}
	place(-1, -1)

	ids := make(map[string]int32) // "" stays -1: a role the node lacks
	for i := range nodes {
		for _, s := range nodes[i].roleSigs() {
			ids[s] = -1
		}
	}
	sigs := make([]string, 0, len(ids))
	for s := range ids {
		if s != "" {
			sigs = append(sigs, s)
		}
	}
	sort.Strings(sigs)
	for id, s := range sigs {
		ids[s] = int32(id)
	}
	for i := range nodes {
		for r, s := range nodes[i].roleSigs() {
			nodes[i].sigIDs[r] = ids[s]
		}
	}
	g.nodes, g.sigs, g.index = nodes, sigs, nil
}

// roleSigs returns the node's wait, unwait and run signatures.
func (n *Node) roleSigs() [3]string { return [3]string{n.WaitSig, n.UnwaitSig, n.RunSig} }

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
	node  int32
	event trace.EventID
}

// walk merges a Wait-Graph subtree of stream s into the AWG under the
// node at index parent (-1 means top level). Component-irrelevant wait
// nodes are transparent: their children attach to the current parent,
// which realises the irrelevant-node elimination of Algorithm 1 along
// whole paths, not just at the roots.
func (ag *Aggregator) walk(s *trace.Stream, n *waitgraph.Node, parent int32, depth int) {
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
		node := ag.g.child(childKey{parent, Waiting, wsig, ag.unwaitSig(s, n)})
		ag.accumulate(node, n)
		for _, c := range n.Children {
			ag.walk(s, c, node, depth+1)
		}

	case trace.Running:
		rsig, ok := ag.filter.TopSignature(s, n.Stack)
		if !ok {
			return
		}
		ag.accumulate(ag.g.child(childKey{parent: parent, kind: Running, sig: rsig}), n)

	case trace.HardwareService:
		ag.accumulate(ag.g.child(childKey{parent: parent, kind: Hardware, sig: sigset.HardwareSignature}), n)
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

// accumulate folds one trace event's metrics into the AWG node at index
// i, once per (node, event) pair per source graph.
func (ag *Aggregator) accumulate(i int32, n *waitgraph.Node) {
	k := nodeEvent{node: i, event: n.Event}
	if _, dup := ag.seen[k]; dup {
		return
	}
	ag.seen[k] = struct{}{}
	node := &ag.g.nodes[i]
	node.C += n.Cost
	node.N++
	if n.Cost > node.MaxC {
		node.MaxC = n.Cost
	}
}
