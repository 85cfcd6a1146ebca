package impact

import (
	"tracescope/internal/trace"
	"tracescope/internal/waitgraph"
)

// Partial is the mergeable intermediate of one impact-analysis shard. It
// carries the running Metrics plus the distinct-wait set needed to merge
// Dwaitdist correctly: a wait event shared by instances of two shards
// must be counted once in the merged result, exactly as the sequential
// path counts it once across all instances.
//
// Dwaitdist is the sum of each distinct wait event's cost, and an event's
// cost is a fixed property of the event — so the merged value is the sum
// over the union of the shards' distinct sets, independent of shard and
// merge order. That is what makes the parallel metrics bit-for-bit equal
// to the sequential ones.
type Partial struct {
	Metrics
	distinct map[trace.EventID]trace.Duration
}

// NewPartial returns an empty partial.
func NewPartial() *Partial {
	return &Partial{distinct: make(map[trace.EventID]trace.Duration)}
}

// AddGraph folds one instance's Wait Graph into the partial, walking the
// graph once to accumulate Dwait, Drun, and the distinct-wait set.
// Driver waits are counted only at the top level: a driver wait below a
// counted driver wait is already included in its parent's cost (§3.2,
// "total wait duration"). filter is the fold's resolver: it answers the
// per-stack matches and lends the walk its visit marks.
func (p *Partial) AddGraph(g *waitgraph.Graph, filter *trace.FilterCache) {
	p.Instances++
	p.Dscn += g.Instance.Duration()

	w := graphWalk{p: p, s: g.Stream, filter: filter, seen: filter.BeginWalk(g.Stream)}
	for _, r := range g.Roots {
		w.visit(r, false)
	}
}

// graphWalk is the state of one AddGraph walk. It lives on AddGraph's
// stack: a recursive closure would cost two heap objects per graph.
type graphWalk struct {
	p      *Partial
	s      *trace.Stream
	filter *trace.FilterCache
	seen   *trace.Marks
}

func (w *graphWalk) visit(n *waitgraph.Node, covered bool) {
	if !w.seen.Visit(n.Event.Index) {
		return
	}
	p := w.p
	switch n.Type {
	case trace.Running:
		if w.filter.MatchStack(w.s, n.Stack) {
			p.Drun += n.Cost
		}
	case trace.Wait:
		if !covered && w.filter.MatchStack(w.s, n.Stack) {
			p.Dwait += n.Cost
			if _, ok := p.distinct[n.Event]; !ok {
				p.distinct[n.Event] = n.Cost
				p.Dwaitdist += n.Cost
			}
			covered = true
		}
		for _, c := range n.Children {
			w.visit(c, covered)
		}
	}
}

// Clone returns a deep copy of the partial: the metrics and the
// distinct-wait set are copied, so ingestion can continue on the
// receiver while a snapshot answers queries.
func (p *Partial) Clone() *Partial {
	c := &Partial{
		Metrics:  p.Metrics,
		distinct: make(map[trace.EventID]trace.Duration, len(p.distinct)),
	}
	for ev, cost := range p.distinct {
		c.distinct[ev] = cost
	}
	return c
}

// Merge folds q into p. Instances, Dscn, Dwait, and Drun are plain sums;
// Dwaitdist is recomputed from the distinct-set union so waits shared
// across shards stay deduplicated.
func (p *Partial) Merge(q *Partial) {
	if q == nil {
		return
	}
	p.Instances += q.Instances
	p.Dscn += q.Dscn
	p.Dwait += q.Dwait
	p.Drun += q.Drun
	for ev, cost := range q.distinct {
		if _, ok := p.distinct[ev]; !ok {
			p.distinct[ev] = cost
			p.Dwaitdist += cost
		}
	}
}
