package awg

// Clone returns a deep copy of the graph: every node is copied, so
// mutating the clone (merging it elsewhere, reducing it) leaves the
// receiver untouched. This is what lets long-lived incremental state
// answer repeated queries — the persistent unreduced forest is cloned,
// and the clone alone is merged and reduced per query. The clone carries
// no stored order (Aggregator.Finish): a clone is a forest to merge, read
// in order by sorting until an aggregator holding it finishes.
func (g *Graph) Clone() *Graph {
	return &Graph{
		roots:       cloneNodes(g.roots),
		ReducedCost: g.ReducedCost,
		KeptCost:    g.KeptCost,
	}
}

// cloneNodes deep-copies a sibling map.
func cloneNodes(src map[string]*Node) map[string]*Node {
	if src == nil {
		return nil
	}
	dst := make(map[string]*Node, len(src))
	for key, n := range src {
		c := *n
		c.children = cloneNodes(n.children)
		c.kids = nil
		dst[key] = &c
	}
	return dst
}
