package awg

import (
	"slices"

	"tracescope/internal/trace"
	"tracescope/internal/waitgraph"
)

// Aggregator runs Algorithm 1 incrementally: Wait Graphs are folded in
// one at a time with Add, partial forests from other aggregators are
// folded in with Merge, and Finish applies the non-optimizable reduction
// once all inputs are in. This is the streaming form of Aggregate — no
// slice of source graphs is ever materialized — and the merge operations
// (C and N sums, MaxC maximum, node-set union keyed by signature) are
// commutative and associative, and Finish lays the forest out in Key
// order: graphs split any way between aggregators and merged in any
// order equal the sequential aggregation bit for bit. Add and Merge
// after Finish panic.
type Aggregator struct {
	g      *Graph
	filter *trace.FilterCache
	opts   Options

	// seen is reused across Adds, so folding a graph into AWG nodes that
	// already exist allocates nothing.
	seen map[nodeEvent]struct{} // (node, event) pairs accumulated by the current Add
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
		g:      &Graph{},
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
		ag.walk(wg.Stream, root, -1, 0)
	}
}

// Partial returns the unreduced forest accumulated so far, suitable for
// merging into another aggregator. It is shared, not copied; Merge only
// reads it.
func (ag *Aggregator) Partial() *Graph { return ag.g }

// Merge folds another forest, open or finished, into this one. Nodes
// present in both forests have their C and N summed and their MaxC
// maximised; the rest are copied. other is left as it was.
func (ag *Aggregator) Merge(other *Graph) {
	ag.mustBeOpen("Merge")
	if other == nil {
		return
	}
	g := ag.g
	g.ReducedCost += other.ReducedCost
	g.KeptCost += other.KeptCost
	if len(g.nodes) == 0 {
		// Parents precede children in either layout, so the slab is a
		// forest to grow as it is; its lookup is built when needed.
		g.nodes, g.index = append(g.nodes, other.nodes...), nil
		return
	}
	at := make([]int32, len(other.nodes)) // other's node i is g's at[i]
	for i := range other.nodes {
		src := &other.nodes[i]
		parent := src.parent
		if parent >= 0 {
			parent = at[parent] // parents come first in either layout
		}
		at[i] = g.child(src.keyUnder(parent))
		dst := &g.nodes[at[i]]
		dst.C += src.C
		dst.N += src.N
		dst.MaxC = max(dst.MaxC, src.MaxC)
	}
}

// Finish applies the reduction (when configured), lays the forest out
// (Graph.Nodes) and returns the final graph. Repeated calls return the
// same graph without re-reducing.
func (ag *Aggregator) Finish() *Graph {
	if !ag.g.finished {
		ag.g.layout(ag.opts.Reduce)
	}
	return ag.g
}

// mustBeOpen panics when op would change a finished forest.
func (ag *Aggregator) mustBeOpen(op string) {
	if ag.g.finished {
		panic("awg: " + op + " after Finish")
	}
}

// Clone returns a deep copy of the graph, open if the graph is: mutating
// the clone leaves the receiver untouched.
func (g *Graph) Clone() *Graph {
	c := *g
	c.nodes, c.index = slices.Clone(g.nodes), nil
	return &c
}
