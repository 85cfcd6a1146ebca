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
//   - a stream's graphs arrive in one run: once a graph of another stream
//     has been added, no further graph of the first stream may be;
//   - partials merged together cover disjoint streams.
//
// Within its stream the partial keeps the distinct waits in a mark set
// of its own over the stream's event numbers, emptied when the next
// stream's run begins. Across streams Dwaitdist is then a plain sum,
// like the other four metrics, so merged metrics are bit-for-bit the
// sequential ones at any sharding. A partial at rest is the metrics, one
// bit per stream it has covered and, once it has folded a stream, that
// set (four bytes per event of its largest stream) — which a Clone and a
// merged-away partial do not have. The bits are what turn a broken
// contract — which would silently double count Dwaitdist — into a panic.
type Partial struct {
	Metrics

	stream int          // the stream whose graphs are arriving (-1: none)
	waits  *trace.Marks // its distinct waits; nil until the first run
	buf    []Wait       // AddGraph's measurement buffer

	closed []uint64 // bit i: stream i's run has ended
}

// NewPartial returns an empty partial.
func NewPartial() *Partial { return &Partial{stream: -1} }

// Wait is one counted wait of a Measurement: a top-level driver wait.
type Wait struct {
	Event int // the wait event's number within its stream
	Cost  trace.Duration
}

// Measurement is what one walk of one instance's Wait Graph measures
// (§3.2): its Dscn, Dwait and Drun, and the waits Dwait sums — each event
// once, so within the one graph Dwait is also the distinct wait. Every
// scope the instance belongs to (all instances, its scenario, its
// contrast class) adds the same Measurement to its own Partial.
type Measurement struct {
	Stream int // the graph's stream, by corpus index
	Events int // that stream's event count: what Wait.Event ranges over

	Dscn, Dwait, Drun trace.Duration
	Waits             []Wait
}

// Measure walks g once. Driver waits are counted only at the top level:
// a driver wait below a counted driver wait is already included in its
// parent's cost (§3.2, "total wait duration"). filter is the fold's
// resolver: it answers the per-stack matches and lends the walk its
// visit marks. The measurement's Waits are written over buf, which the
// caller owns and hands back (as Waits) to the next call; nil is fine.
func Measure(g *waitgraph.Graph, filter *trace.FilterCache, buf []Wait) Measurement {
	w := graphWalk{s: g.Stream, filter: filter, seen: filter.BeginWalk(g.Stream), waits: buf[:0]}
	for _, r := range g.Roots {
		w.visit(r, false)
	}
	return Measurement{
		Stream: g.StreamIndex, Events: len(g.Stream.Events),
		Dscn: g.Instance.Duration(), Dwait: w.dwait, Drun: w.drun, Waits: w.waits,
	}
}

// Add folds one instance's measurement into the partial: four additions,
// and a distinct-wait lookup per counted wait. A stream's measurements
// must arrive in one run (see Partial); Add panics otherwise.
func (p *Partial) Add(m Measurement) {
	if p.stream != m.Stream {
		p.open(m.Stream, m.Events)
	}
	p.Instances++
	p.Dscn += m.Dscn
	p.Dwait += m.Dwait
	p.Drun += m.Drun
	for _, w := range m.Waits {
		if p.waits.Visit(w.Event) {
			p.Dwaitdist += w.Cost
		}
	}
}

// AddGraph measures g and adds the measurement: Measure, then Add, for a
// caller with one partial to feed.
func (p *Partial) AddGraph(g *waitgraph.Graph, filter *trace.FilterCache) {
	m := Measure(g, filter, p.buf)
	p.buf = m.Waits
	p.Add(m)
}

// open starts the run of stream si, which has n events: the previous
// stream's run ends, and the distinct-wait set starts empty.
func (p *Partial) open(si, n int) {
	p.close()
	if si < 0 {
		panic(fmt.Sprintf("impact: graph of stream %d: a Partial needs the stream's corpus index", si))
	}
	if hasBit(p.closed, si) {
		panic(fmt.Sprintf("impact: stream %d reopened: a Partial takes a stream's graphs in one run", si))
	}
	if p.waits == nil {
		p.waits = trace.NewMarks()
	}
	p.waits.Begin(n)
	p.stream = si
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
	p.stream = -1
}

func hasBit(set []uint64, i int) bool {
	return i/64 < len(set) && set[i/64]&(1<<(i%64)) != 0
}

// graphWalk is the state of one Measure walk. It lives on Measure's
// stack: a recursive closure would cost two heap objects per graph, and
// so would walking into a Measurement through a pointer.
type graphWalk struct {
	s      *trace.Stream
	filter *trace.FilterCache
	seen   *trace.Marks

	dwait, drun trace.Duration
	waits       []Wait
}

func (w *graphWalk) visit(n *waitgraph.Node, covered bool) {
	if !w.seen.Visit(n.Event.Index) {
		return
	}
	switch n.Type {
	case trace.Running:
		if w.filter.MatchStack(w.s, n.Stack) {
			w.drun += n.Cost
		}
	case trace.Wait:
		if !covered && w.filter.MatchStack(w.s, n.Stack) {
			w.dwait += n.Cost
			w.waits = append(w.waits, Wait{Event: n.Event.Index, Cost: n.Cost})
			covered = true
		}
		for _, c := range n.Children {
			w.visit(c, covered)
		}
	}
}

// Clone returns a copy of the partial at rest: the metrics and the
// covered-stream bits, with any open stream's run ended and no
// distinct-wait set — so ingestion can continue on the receiver while a
// snapshot answers queries, and the copy refuses the receiver's streams.
func (p *Partial) Clone() *Partial {
	c := *p
	c.closed = append([]uint64(nil), p.closed...)
	c.waits, c.buf = nil, nil
	c.close()
	return &c
}

// Merge folds q into p: five sums, after ending both partials' open
// runs. The two must cover disjoint streams (a stream in both would have
// its shared waits counted twice); Merge panics if they do not. q is
// spent: its distinct-wait set is let go.
func (p *Partial) Merge(q *Partial) {
	if q == nil {
		return
	}
	p.close()
	q.close()
	q.waits, q.buf = nil, nil
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
