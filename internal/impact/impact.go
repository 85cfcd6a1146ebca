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
	"sync"

	"tracescope/internal/obs"
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

// Analyzer runs impact analyses over one corpus source, building
// per-stream Wait-Graph builders lazily as streams are first fetched and
// caching assembled instance graphs in a bounded cache shared with the
// causality analysis.
//
// When the source is a *trace.CachedSource, the analyzer registers an
// eviction hook so a stream's builder (which references the decoded
// stream) is released the moment the cache evicts the stream — keeping
// decoded memory proportional to the cache limit, not the corpus size.
type Analyzer struct {
	src    trace.Source
	wgOpts waitgraph.Options
	cache  *graphCache
	rec    obs.Recorder

	bmu      sync.Mutex
	builders map[int]*waitgraph.Builder

	emu sync.Mutex
	err error
}

// evictionNotifier is satisfied by *trace.CachedSource; the analyzer
// uses it to drop builders for evicted streams.
type evictionNotifier interface {
	AddEvictionHook(fn func(stream int))
}

// NewAnalyzer indexes the source for impact analysis. *trace.Corpus
// satisfies trace.Source, so in-memory corpora pass through unchanged.
func NewAnalyzer(src trace.Source, opts waitgraph.Options) *Analyzer {
	a := &Analyzer{
		src:      src,
		wgOpts:   opts,
		cache:    newGraphCache(DefaultGraphCacheLimit),
		rec:      obs.Nop,
		builders: make(map[int]*waitgraph.Builder),
	}
	if n, ok := src.(evictionNotifier); ok {
		n.AddEvictionHook(a.dropBuilder)
	}
	return a
}

// Source returns the corpus source under analysis.
func (a *Analyzer) Source() trace.Source { return a.src }

// SetRecorder routes the analyzer's observability events (Wait-Graph
// build spans, graph-cache counters) to r. Call before concurrent use;
// nil restores the no-op recorder.
func (a *Analyzer) SetRecorder(r obs.Recorder) { a.rec = obs.OrNop(r) }

// Err returns the first stream-fetch failure encountered, if any.
// In-memory sources never fail; lazy sources can (missing or corrupt
// stream files). Analyses proceed past failures treating the failed
// instances as empty, so callers over lazy sources should check Err
// after an analysis.
func (a *Analyzer) Err() error {
	a.emu.Lock()
	defer a.emu.Unlock()
	return a.err
}

func (a *Analyzer) setErr(err error) {
	a.emu.Lock()
	if a.err == nil {
		a.err = err
	}
	a.emu.Unlock()
}

// builder returns (building if needed) the Wait-Graph builder for stream
// i. Concurrent first builds of the same stream must be partitioned by
// the caller (the engine's stream sharding does this); the map itself is
// guarded so eviction hooks may fire from other workers.
func (a *Analyzer) builder(i int) (*waitgraph.Builder, error) {
	a.bmu.Lock()
	b := a.builders[i]
	a.bmu.Unlock()
	if b != nil {
		return b, nil
	}
	sp := a.rec.Start("impact_wait_graph_build")
	s, err := a.src.Stream(i)
	if err != nil {
		sp.End()
		return nil, err
	}
	b = waitgraph.NewBuilder(s, i, a.wgOpts)
	sp.End()
	a.rec.Add("impact_builders_built_total", 1)
	a.bmu.Lock()
	if exist, ok := a.builders[i]; ok {
		b = exist // another worker won the build race; adopt its builder
	} else {
		a.builders[i] = b
	}
	a.bmu.Unlock()
	return b, nil
}

// dropBuilder releases stream i's builder (and with it the decoded
// stream it references); a later fetch rebuilds it from the same bytes,
// so results are unaffected. Cached graphs of the stream are purged too:
// they would keep the evicted stream resident, defeating the cache
// bound.
func (a *Analyzer) dropBuilder(i int) {
	a.bmu.Lock()
	delete(a.builders, i)
	a.bmu.Unlock()
	if evicted := a.cache.dropStream(i); evicted > 0 {
		a.rec.Add("impact_graph_cache_evictions_total", evicted)
	}
}

// GraphsOver builds each instance's Wait Graph in order and hands it to
// fn.
func (a *Analyzer) GraphsOver(refs []trace.InstanceRef, fn func(ref trace.InstanceRef, g *waitgraph.Graph)) {
	for _, ref := range refs {
		fn(ref, a.Graph(ref))
	}
}

// Graph builds (or retrieves) the Wait Graph of an instance. Cache
// lookups are thread-safe; concurrent first builds of the same stream
// must be partitioned by the caller (the engine's stream sharding does
// this). A stream-fetch failure is latched in Err and yields an empty
// graph.
func (a *Analyzer) Graph(ref trace.InstanceRef) *waitgraph.Graph {
	if g := a.cache.get(ref); g != nil {
		a.rec.Add("impact_graph_cache_hits_total", 1)
		return g
	}
	a.rec.Add("impact_graph_cache_misses_total", 1)
	b, err := a.builder(ref.Stream)
	if err != nil {
		a.setErr(fmt.Errorf("impact: stream %d: %w", ref.Stream, err))
		a.rec.Add("impact_fetch_errors_total", 1)
		return &waitgraph.Graph{
			Stream:      trace.NewStream("<fetch error>"),
			StreamIndex: ref.Stream,
		}
	}
	sp := a.rec.Start("impact_graph_assemble")
	g := b.Instance(b.Stream().Instances[ref.Instance])
	sp.End()
	if evicted := a.cache.put(ref, g); evicted > 0 {
		a.rec.Add("impact_graph_cache_evictions_total", evicted)
	}
	return g
}

// GraphCacheStats reports the Wait-Graph cache's hit/miss/eviction
// counters and current size.
func (a *Analyzer) GraphCacheStats() CacheStats { return a.cache.statsSnapshot() }

// SetGraphCacheLimit rebounds the Wait-Graph cache (0 disables caching),
// evicting oldest entries if the cache already exceeds the new limit.
func (a *Analyzer) SetGraphCacheLimit(n int) { a.cache.setLimit(n) }

// Analyze measures the chosen components over the given instances (nil
// means every instance in the corpus).
func (a *Analyzer) Analyze(filter *trace.ComponentFilter, refs []trace.InstanceRef) Metrics {
	if refs == nil {
		refs = a.src.InstancesOf("")
	}
	return a.AnalyzeShard(filter, refs).Metrics
}

// AnalyzeShard measures the chosen components over one shard of
// instances, returning the mergeable partial. The sequential Analyze is
// the one-shard special case.
func (a *Analyzer) AnalyzeShard(filter *trace.ComponentFilter, refs []trace.InstanceRef) *Partial {
	p := NewPartial()
	cache := trace.NewFilterCache(filter)
	a.GraphsOver(refs, func(_ trace.InstanceRef, g *waitgraph.Graph) {
		p.AddGraph(g, cache)
	})
	return p
}
