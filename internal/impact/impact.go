// Package impact implements the paper's impact analysis (§3): given
// scenario instances over a corpus and a component filter, it constructs
// Wait Graphs and derives the three output metrics
//
//	IArun  = Drun / Dscn      (CPU impact of the chosen components)
//	IAwait = Dwait / Dscn     (blocking impact)
//	IAopt  = (Dwait - Dwaitdist) / Dscn
//
// where Dwaitdist deduplicates wait events shared across scenario
// instances — the extra wait introduced by cost propagation, and an upper
// bound on its optimisation potential.
package impact

import (
	"fmt"

	"tracescope/internal/trace"
	"tracescope/internal/waitgraph"
)

// Metrics is the result of one impact analysis.
type Metrics struct {
	// Instances is the number of scenario instances analysed.
	Instances int
	// Dscn is the aggregated execution time of all instances.
	Dscn trace.Duration
	// Dwait is the aggregated top-level wait time of the chosen
	// components, counted per instance (duplicates across instances
	// included).
	Dwait trace.Duration
	// Drun is the aggregated running time of the chosen components
	// (1 ms sampling granularity, so approximate).
	Drun trace.Duration
	// Dwaitdist is Dwait with wait events deduplicated across instances.
	Dwaitdist trace.Duration
}

// IAwait is the wait-percentage output metric.
func (m Metrics) IAwait() float64 { return ratio(m.Dwait, m.Dscn) }

// IArun is the running-percentage output metric.
func (m Metrics) IArun() float64 { return ratio(m.Drun, m.Dscn) }

// IAopt is the percentage of waiting time introduced by cost propagation,
// an upper bound for its optimisation potential.
func (m Metrics) IAopt() float64 { return ratio(m.Dwait-m.Dwaitdist, m.Dscn) }

// WaitDistinctRatio is Dwait/Dwaitdist: how many scenario instances the
// average distinct wait second propagates into (≈3.5 in the paper).
func (m Metrics) WaitDistinctRatio() float64 {
	if m.Dwaitdist == 0 {
		return 0
	}
	return float64(m.Dwait) / float64(m.Dwaitdist)
}

func ratio(a, b trace.Duration) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// String renders the headline numbers.
func (m Metrics) String() string {
	return fmt.Sprintf(
		"instances=%d Dscn=%v IAwait=%.1f%% IArun=%.1f%% IAopt=%.1f%% Dwait/Dwaitdist=%.2f",
		m.Instances, m.Dscn, m.IAwait()*100, m.IArun()*100, m.IAopt()*100, m.WaitDistinctRatio())
}

// GraphsOver builds the Wait Graph of every referenced instance and
// hands it to fn, in refs order. Refs from Source.InstancesOf arrive
// grouped by stream, so each stream is fetched once: the walk fetches a
// stream into its one set of decode buffers (trace.StreamInto), resets
// its one Wait-Graph builder to it, assembles the graphs the refs ask
// for, then releases the stream before it fetches the next.
// last tells fn that the stream ends with this graph: whatever fn's
// caller still holds of the stream (a trace.FilterCache bound to it, a
// per-stream aggregate) must go now, and then nothing is kept — when fn
// returns the stream is garbage or overwritten, and every graph built
// from it is invalid: fn must not keep a graph, or a node, past the call
// that hands it the stream's last.
// The first fetch error stops the walk and is returned; graphs handed
// out before it cover only part of refs, so the caller must discard
// what it accumulated from them.
func GraphsOver(src trace.Source, refs []trace.InstanceRef, fn func(ref trace.InstanceRef, g *waitgraph.Graph, last bool)) error {
	var (
		b   waitgraph.Builder
		buf trace.Scratch
	)
	for k, ref := range refs {
		if b.Stream() == nil {
			s, err := trace.StreamInto(src, ref.Stream, &buf)
			if err != nil {
				return fmt.Errorf("impact: stream %d: %w", ref.Stream, err)
			}
			b.Reset(s, ref.Stream, waitgraph.Options{})
		}
		g := b.Instance(b.Stream().Instances[ref.Instance])
		last := k+1 == len(refs) || refs[k+1].Stream != ref.Stream
		fn(ref, g, last)
		if last {
			b.Release()
		}
	}
	return nil
}

// CacheStats counts Wait-Graph construction (core.Analyzer's
// GraphCacheStats). The name and the Hits field are what the benchmark
// driver reads; no Wait Graph is cached anywhere, so Hits is always 0
// until a benchmark change renames them.
type CacheStats struct {
	Hits   int64
	Misses int64 // Wait Graphs built
}
