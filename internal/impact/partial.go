package impact

import (
	"fmt"
	"math/bits"

	"tracescope/internal/trace"
	"tracescope/internal/waitgraph"
)

// Partial is the mergeable intermediate of one impact analysis: the
// running Metrics, plus what it takes to count Dwaitdist — each distinct
// wait event once, however many instances' graphs reach it.
//
// An event belongs to exactly one stream, so a wait can only be shared
// by graphs of the same stream, and the distinct-wait set never needs to
// outlive a stream. The contract that makes this work:
//
//   - a stream's graphs arrive in one run: once AddGraph has seen a graph
//     of another stream (or the fold's FilterCache has moved on), no
//     further graph of the first stream may be added;
//   - partials merged together cover disjoint streams.
//
// Within its stream the partial keeps the distinct waits in a mark set
// over the stream's event numbers, on lease from the fold's FilterCache
// and reclaimed by it when the stream ends. Across streams Dwaitdist is
// then a plain sum, like the other four metrics, so merged metrics are
// bit-for-bit the sequential ones at any sharding. A partial at rest is
// the metrics and one bit per stream it has covered; the bits are what
// turn a broken contract — which would silently double count Dwaitdist —
// into a panic.
type Partial struct {
	Metrics

	// The stream whose graphs are arriving (-1: none), its distinct waits,
	// and the FilterCache tenure (cache, StreamSeq) the lease is good for.
	stream int
	waits  *trace.Marks
	lender *trace.FilterCache
	seq    uint64

	closed []uint64 // bit i: stream i's run has ended
}

// NewPartial returns an empty partial.
func NewPartial() *Partial { return &Partial{stream: -1} }

// AddGraph folds one instance's Wait Graph into the partial, walking the
// graph once to accumulate Dwait, Drun, and the stream's distinct waits.
// Driver waits are counted only at the top level: a driver wait below a
// counted driver wait is already included in its parent's cost (§3.2,
// "total wait duration"). filter is the fold's resolver: it answers the
// per-stack matches and lends the walk its visit marks and the partial
// its distinct-wait set. Graphs of one stream must arrive in one run and
// through one resolver (see Partial); AddGraph panics otherwise.
func (p *Partial) AddGraph(g *waitgraph.Graph, filter *trace.FilterCache) {
	seen := filter.BeginWalk(g.Stream)
	if p.stream != g.StreamIndex || p.lender != filter || p.seq != filter.StreamSeq() {
		p.open(g.StreamIndex, filter)
	}
	p.Instances++
	p.Dscn += g.Instance.Duration()

	w := graphWalk{p: p, s: g.Stream, filter: filter, seen: seen}
	for _, r := range g.Roots {
		w.visit(r, false)
	}
}

// open starts stream si's run: the previous stream's run ends, and the
// distinct-wait set is a new lease over filter's current stream.
func (p *Partial) open(si int, filter *trace.FilterCache) {
	p.close()
	if si < 0 {
		panic(fmt.Sprintf("impact: graph of stream %d: a Partial needs the stream's corpus index", si))
	}
	if hasBit(p.closed, si) {
		panic(fmt.Sprintf("impact: stream %d reopened: a Partial takes a stream's graphs in one run, through one FilterCache", si))
	}
	p.stream, p.waits = si, filter.LeaseMarks()
	p.lender, p.seq = filter, filter.StreamSeq()
}

// close ends the open stream's run, if any.
func (p *Partial) close() {
	if p.stream < 0 {
		return
	}
	for len(p.closed) <= p.stream/64 {
		p.closed = append(p.closed, 0)
	}
	p.closed[p.stream/64] |= 1 << (p.stream % 64)
	p.stream, p.waits, p.lender = -1, nil, nil
}

func hasBit(set []uint64, i int) bool {
	return i/64 < len(set) && set[i/64]&(1<<(i%64)) != 0
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
			if p.waits.Visit(n.Event.Index) {
				p.Dwaitdist += n.Cost
			}
			covered = true
		}
		for _, c := range n.Children {
			w.visit(c, covered)
		}
	}
}

// Clone returns a copy of the partial at rest: the metrics and the
// covered-stream bits, with any open stream's run ended — so ingestion
// can continue on the receiver while a snapshot answers queries, and the
// copy refuses the receiver's streams.
func (p *Partial) Clone() *Partial {
	c := *p
	c.closed = append([]uint64(nil), p.closed...)
	c.close()
	return &c
}

// Merge folds q into p: five sums, after ending both partials' open
// runs. The two must cover disjoint streams (a stream in both would have
// its shared waits counted twice); Merge panics if they do not.
func (p *Partial) Merge(q *Partial) {
	if q == nil {
		return
	}
	p.close()
	q.close()
	for len(p.closed) < len(q.closed) {
		p.closed = append(p.closed, 0)
	}
	for k, w := range q.closed {
		if both := p.closed[k] & w; both != 0 {
			panic(fmt.Sprintf("impact: merging two partials that both cover stream %d: merged partials must cover disjoint streams",
				k*64+bits.TrailingZeros64(both)))
		}
		p.closed[k] |= w
	}
	p.Instances += q.Instances
	p.Dscn += q.Dscn
	p.Dwait += q.Dwait
	p.Drun += q.Drun
	p.Dwaitdist += q.Dwaitdist
}
