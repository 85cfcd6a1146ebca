package awg

import (
	"tracescope/internal/trace"
	"tracescope/internal/waitgraph"
)

// Aggregator runs Algorithm 1 incrementally: Wait Graphs are folded in
// one at a time with Add, partial forests from other aggregators are
// folded in with Merge, and Finish applies the non-optimizable reduction
// once all inputs are in. This is the streaming form of Aggregate — no
// slice of source graphs is ever materialized — and the merge operations
// (C and N sums, MaxC maximum, node-set union keyed by signature) are
// commutative and associative, and a forest is read back in sorted order
// (Node.Children, Graph.Roots): graphs split any way between aggregators
// and merged in any order equal the sequential aggregation bit for bit.
// Finish sorts each sibling set once and stores that order, so a finished
// graph is read in order without sorting; Add and Merge after Finish
// panic, as the order they would leave behind is no longer the graph's.
type Aggregator struct {
	g        *Graph
	filter   *trace.FilterCache
	opts     Options
	finished bool

	// Scratch reused across Adds, so folding a graph into AWG nodes that
	// already exist allocates nothing.
	seen map[nodeEvent]struct{} // (node, event) pairs accumulated by the current Add
	key  []byte                 // sibling-key buffer for child lookups
}

// NewAggregator prepares an empty aggregation for one contrast class,
// with a filter resolver of its own. A fold with several consumers
// should hand them one shared resolver through NewAggregatorOn instead.
func NewAggregator(filter *trace.ComponentFilter, opts Options) *Aggregator {
	return NewAggregatorOn(trace.NewFilterCache(filter), opts)
}

// NewAggregatorOn is NewAggregator over the caller's resolver — the one
// every other consumer of the same fold uses (DESIGN.md §3). The caller
// keeps ownership: it calls fc.Forget when a stream's fold ends.
func NewAggregatorOn(fc *trace.FilterCache, opts Options) *Aggregator {
	opts.applyDefaults()
	return &Aggregator{
		g:      &Graph{roots: make(map[string]*Node)},
		filter: fc,
		opts:   opts,
		seen:   make(map[nodeEvent]struct{}),
	}
}

// Add folds one Wait Graph into the aggregation: irrelevant-node
// elimination, wait/unwait pair merging, and common-prefix aggregation,
// with per-(node, event) dedup local to this source graph.
func (ag *Aggregator) Add(wg *waitgraph.Graph) {
	ag.mustBeOpen("Add")
	clear(ag.seen)
	for _, root := range wg.Roots {
		ag.walk(wg.Stream, root, nil, 0)
	}
}

// Partial returns the unreduced forest accumulated so far, suitable for
// merging into another aggregator. The forest is shared, not copied: the
// receiving aggregator takes ownership and this one must not be used
// afterwards.
func (ag *Aggregator) Partial() *Graph { return ag.g }

// Merge folds another aggregation's unreduced forest into this one.
// Nodes present in both forests have their C and N summed and their MaxC
// maximised; subtrees unique to other are adopted wholesale.
func (ag *Aggregator) Merge(other *Graph) {
	ag.mustBeOpen("Merge")
	if other == nil {
		return
	}
	mergeForest(ag.g.roots, other.roots)
	ag.g.ReducedCost += other.ReducedCost
	ag.g.KeptCost += other.KeptCost
}

// Finish applies the reduction (when configured), stores the forest's
// key order (Graph.Roots, Node.Children) and returns the final graph.
// Repeated calls return the same graph without re-reducing.
func (ag *Aggregator) Finish() *Graph {
	if !ag.finished {
		ag.finished = true
		if ag.opts.Reduce {
			ag.g.reduce()
		}
		ag.g.order = setOrder(ag.g.roots)
	}
	return ag.g
}

// mustBeOpen panics when op would change a finished forest.
func (ag *Aggregator) mustBeOpen(op string) {
	if ag.finished {
		panic("awg: " + op + " after Finish")
	}
}

// mergeForest folds src's nodes into dst, recursing into children of
// nodes present in both.
func mergeForest(dst, src map[string]*Node) {
	for key, sn := range src {
		dn, ok := dst[key]
		if !ok {
			dst[key] = sn
			continue
		}
		dn.C += sn.C
		dn.N += sn.N
		if sn.MaxC > dn.MaxC {
			dn.MaxC = sn.MaxC
		}
		if len(sn.children) > 0 {
			if dn.children == nil {
				dn.children = make(map[string]*Node, len(sn.children))
			}
			mergeForest(dn.children, sn.children)
		}
	}
}
