// Package core orchestrates the paper's two-step approach: impact
// analysis (§3) to measure how much chosen components affect scenario
// performance, and causality analysis (§4) to discover Signature Set
// Tuple contrast patterns that explain the measured impact.
//
// The package ties together waitgraph (data abstraction), impact
// (measurement), awg (per-class aggregation), and mining (contrast
// pattern discovery) over a trace corpus.
package core

import (
	"fmt"

	"tracescope/internal/awg"
	"tracescope/internal/engine"
	"tracescope/internal/impact"
	"tracescope/internal/mining"
	"tracescope/internal/obs"
	"tracescope/internal/trace"
	"tracescope/internal/waitgraph"
)

// Options tunes how the analyzer schedules and observes its work.
// Prefer the Option functions (WithWorkers, WithRecorder) over building
// this struct directly.
type Options struct {
	// Workers bounds the shard-and-merge worker pool used by Impact and
	// Causality. Zero means GOMAXPROCS; one forces the sequential path.
	// Results are bit-for-bit identical at any setting: shards never
	// split a stream, per-shard partials are deterministic, and merges
	// happen in shard-index order.
	Workers int
	// Recorder receives the pipeline's observability events. Nil means
	// no-op.
	Recorder obs.Recorder
}

// Analyzer runs impact and causality analyses over one corpus source,
// sharing Wait-Graph construction between them. The source may be an
// in-memory *trace.Corpus or a lazy out-of-core source (*trace.DirSource,
// usually wrapped in a *trace.CachedSource); results are identical either
// way. Per-stream metadata is snapshotted at construction so instance
// enumeration, contrast-class splitting, and shard packing never decode
// event payloads.
type Analyzer struct {
	src   trace.Source
	metas []trace.StreamMeta
	imp   *impact.Analyzer
	opts  Options
	rec   obs.Recorder
}

// NewAnalyzer indexes a corpus source for impact and causality analyses.
// Options configure scheduling and observability:
//
//	an := core.NewAnalyzer(src, core.WithWorkers(8), core.WithRecorder(rec))
//
// With no options the analyzer uses GOMAXPROCS workers and records
// nothing. When a recorder is set and the source is instrumentable
// (*trace.CachedSource, *trace.DirSource), the recorder is wired into the
// source too, so every layer reports into one registry.
func NewAnalyzer(src trace.Source, options ...Option) *Analyzer {
	var opts Options
	for _, opt := range options {
		opt.applyAnalyzer(&opts)
	}
	metas := make([]trace.StreamMeta, src.NumStreams())
	for i := range metas {
		metas[i] = src.StreamMeta(i)
	}
	a := &Analyzer{
		src:   src,
		metas: metas,
		imp:   impact.NewAnalyzer(src, waitgraph.Options{}),
		opts:  opts,
		rec:   obs.OrNop(opts.Recorder),
	}
	if opts.Recorder != nil {
		a.imp.SetRecorder(opts.Recorder)
		if rs, ok := src.(interface{ SetRecorder(obs.Recorder) }); ok {
			rs.SetRecorder(opts.Recorder)
		}
	}
	return a
}

// Source returns the corpus source under analysis.
func (a *Analyzer) Source() trace.Source { return a.src }

// Err returns the first stream-fetch failure encountered by any
// analysis, if one occurred. In-memory sources never fail; callers over
// lazy sources should check Err after an analysis (failed instances are
// treated as empty rather than aborting a shard run midway).
func (a *Analyzer) Err() error { return a.imp.Err() }

// GraphCacheStats reports the shared Wait-Graph cache's counters.
func (a *Analyzer) GraphCacheStats() impact.CacheStats { return a.imp.GraphCacheStats() }

// SetGraphCacheLimit rebounds the shared Wait-Graph cache (0 disables
// caching) — for corpora whose graph set must not stay RAM-resident, and
// for benchmarks that need cold-cache measurements.
func (a *Analyzer) SetGraphCacheLimit(n int) { a.imp.SetGraphCacheLimit(n) }

// engineOptions maps the analyzer options onto the engine's; label
// names the run in recorded spans and progress events.
func (a *Analyzer) engineOptions(label string) engine.Options {
	return engine.Options{Workers: a.opts.Workers, Recorder: a.opts.Recorder, Label: label}
}

// shards packs refs into stream-whole shards weighted by per-stream
// event counts (known from metadata, so lazy sources shard without
// decoding anything). Shard composition affects only load balance:
// merges are partition-invariant, so results are identical to the
// sequential path.
func (a *Analyzer) shards(refs []trace.InstanceRef) []engine.Shard {
	return engine.ShardByStreamWeighted(refs, func(stream int) int64 {
		return int64(a.metas[stream].Events)
	}, a.engineOptions("").TargetShards())
}

// Impact measures the chosen components over all instances of the named
// scenario ("" means every instance): step one of the approach, run as a
// shard-and-merge over the engine's worker pool.
func (a *Analyzer) Impact(filter *trace.ComponentFilter, scenario string) impact.Metrics {
	sp := a.rec.Start("impact_analysis")
	defer sp.End()
	return a.impactOver(filter, a.src.InstancesOf(scenario))
}

// impactOver shards refs by stream, measures each shard on the pool, and
// merges the partials in shard order.
func (a *Analyzer) impactOver(filter *trace.ComponentFilter, refs []trace.InstanceRef) impact.Metrics {
	eng := a.engineOptions("impact_measure")
	shards := a.shards(refs)
	merged := engine.MapMerge(len(shards), eng,
		func(i int) *impact.Partial {
			return a.imp.AnalyzeShard(filter, shards[i].Refs)
		},
		func(acc, next *impact.Partial) *impact.Partial {
			acc.Merge(next)
			return acc
		})
	if merged == nil {
		return impact.Metrics{}
	}
	return merged.Metrics
}

// CausalityConfig parameterises one causality analysis.
type CausalityConfig struct {
	// Scenario selects the instances to analyse.
	Scenario string
	// Tfast and Tslow are the scenario's developer thresholds
	// (§4.2.1): instances faster than Tfast form the fast class,
	// slower than Tslow the slow class.
	Tfast trace.Duration
	Tslow trace.Duration
	// Filter names the components under analysis ({C} in Algorithm 1).
	Filter *trace.ComponentFilter
	// Mining bounds pattern discovery; zero values take the paper's
	// defaults (k=5).
	Mining mining.Params
	// DisableReduce turns off the non-optimizable reduction of
	// Algorithm 1 (for ablation only; the paper always reduces).
	DisableReduce bool
	// MaxAWGDepth bounds aggregation depth; zero takes the default.
	MaxAWGDepth int
}

func (c *CausalityConfig) applyDefaults() error {
	if c.Scenario == "" {
		return fmt.Errorf("core: causality analysis needs a scenario")
	}
	if c.Tfast <= 0 || c.Tslow <= c.Tfast {
		return fmt.Errorf("core: need 0 < Tfast < Tslow, got %v, %v", c.Tfast, c.Tslow)
	}
	if c.Filter == nil {
		c.Filter = trace.AllDrivers()
	}
	c.Mining.Tfast = c.Tfast
	c.Mining.Tslow = c.Tslow
	c.Mining.ApplyDefaults()
	return nil
}

// CausalityResult is the outcome of one causality analysis, carrying the
// ranked contrast patterns plus every aggregate the evaluation tables
// report.
type CausalityResult struct {
	Scenario string
	Tfast    trace.Duration
	Tslow    trace.Duration

	// Class sizes (Table 1).
	Instances int
	FastCount int
	SlowCount int

	// Ranked contrast patterns, highest average cost first.
	Patterns []mining.Pattern
	// NumContrasts is the number of contrast meta-patterns found;
	// SlowOnlyContrasts were selected by criterion 1 (absent from the
	// fast class) and RatioContrasts by criterion 2 (common but with an
	// average-cost ratio above Tslow/Tfast).
	NumContrasts      int
	SlowOnlyContrasts int
	RatioContrasts    int

	// SlowMetas and FastMetas count enumerated meta-patterns per class;
	// SegmentsSlow/Fast count enumerated path segments.
	SlowMetas    int
	FastMetas    int
	SegmentsSlow int
	SegmentsFast int

	// Slow-class impact metrics: the denominator of the coverages.
	SlowImpact impact.Metrics
	// TotalDriverCost is the slow class's driver execution time
	// (Dwait + Drun), the denominator of ITC and TTC.
	TotalDriverCost trace.Duration
	// DriverCostShare is Table 2's "Driver Cost": driver time over the
	// slow class's total execution time.
	DriverCostShare float64
	// ITC and TTC are the impactful-time and total-time coverages
	// (Table 2).
	ITC float64
	TTC float64

	// Non-optimizable reduction accounting (§5.2.2).
	ReducedCost  trace.Duration
	KeptCost     trace.Duration
	ReducedShare float64

	// SlowAWG is the slow class's Aggregated Wait Graph (retained for
	// rendering, e.g. Figure 2).
	SlowAWG *awg.Graph
}

// phase wraps one causality phase in a span and reports its completion
// as a progress event, so CLIs see phases tick by live.
func (a *Analyzer) phase(name string, fn func()) {
	phaseRun(a.rec, name, fn)
}

// phaseRun is the recorder-explicit form of phase, shared with the
// incremental path.
func phaseRun(rec obs.Recorder, name string, fn func()) {
	sp := rec.Start(name)
	fn()
	sp.End()
	rec.Progress(name, 1, 1)
}

// Causality runs step two of the approach for one scenario. If any
// stream fetch failed during the analysis — lazy sources treat failed
// instances as empty rather than aborting a shard run midway — the
// latched error is returned alongside the (incomplete) result; see Err.
func (a *Analyzer) Causality(cfg CausalityConfig) (*CausalityResult, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	total := a.rec.Start("causality_analysis")
	defer total.End()

	refs := a.src.InstancesOf(cfg.Scenario)
	if len(refs) == 0 {
		return nil, fmt.Errorf("core: no instances of scenario %q", cfg.Scenario)
	}

	// Classification needs only instance metadata: lazy sources split the
	// contrast classes without decoding a single stream.
	var classed []trace.InstanceRef // fast and slow refs, in refs order
	var fastCount, slowCount int
	a.phase("causality_classify", func() {
		for _, ref := range refs {
			switch classify(a.src.InstanceMeta(ref), cfg.Tfast, cfg.Tslow) {
			case fastClass:
				fastCount++
			case slowClass:
				slowCount++
			default:
				continue
			}
			classed = append(classed, ref)
		}
	})
	a.rec.Add("causality_instances_total", int64(len(refs)))
	a.rec.Add("causality_fast_total", int64(fastCount))
	a.rec.Add("causality_slow_total", int64(slowCount))
	res := &CausalityResult{
		Scenario:  cfg.Scenario,
		Tfast:     cfg.Tfast,
		Tslow:     cfg.Tslow,
		Instances: len(refs),
		FastCount: fastCount,
		SlowCount: slowCount,
	}
	if slowCount == 0 {
		return res, a.imp.Err()
	}

	slowAWG, fastAWG, slowImpact := a.aggregateClasses(classed, cfg)
	finishCausality(a.rec, cfg, res, slowAWG, fastAWG, slowImpact)
	return res, a.imp.Err()
}

// contrastClass is an instance's side of the developer thresholds.
type contrastClass uint8

const (
	unclassed contrastClass = iota // between the thresholds: in neither class
	fastClass
	slowClass
)

// classify places an instance by its recorded duration (§4.2.1).
func classify(in trace.Instance, tfast, tslow trace.Duration) contrastClass {
	switch d := in.Duration(); {
	case d < tfast:
		return fastClass
	case d > tslow:
		return slowClass
	}
	return unclassed
}

// finishCausality runs the mining phases (enumerate, select, lift, rank)
// over the finished class AWGs and fills in the result's patterns and
// aggregates. It is shared verbatim by the batch path above and the
// incremental path (Incremental.Causality), which is what makes the two
// bit-for-bit comparable: once the class AWGs are equal, everything
// downstream is the same code.
func finishCausality(rec obs.Recorder, cfg CausalityConfig, res *CausalityResult,
	slowAWG, fastAWG *awg.Graph, slowImpact impact.Metrics) {

	var slowMetas, fastMetas map[string]*mining.Meta
	var segSlow, segFast int
	phaseRun(rec, "causality_enumerate", func() {
		slowMetas, segSlow = mining.EnumerateMetas(slowAWG, cfg.Mining.K, cfg.Mining.MaxSegments)
		fastMetas, segFast = mining.EnumerateMetas(fastAWG, cfg.Mining.K, cfg.Mining.MaxSegments)
	})
	var contrasts []mining.Contrast
	phaseRun(rec, "causality_select", func() {
		contrasts = mining.DiscoverContrasts(slowMetas, fastMetas, cfg.Tfast, cfg.Tslow)
	})
	var patterns []mining.Pattern
	phaseRun(rec, "causality_lift", func() {
		patterns = mining.DiscoverPatterns(slowAWG, contrasts)
	})

	rankSpan := rec.Start("causality_rank")
	res.SlowImpact = slowImpact
	// The coverage denominator is the slow class's total driver time
	// under the same full-path accounting as pattern costs, plus the
	// portions removed as non-optimizable — §5.2.2 keeps them in the
	// total ("66.6% ... removed, the resulting graph represents the
	// remaining 33.4%, and more than half of the remaining portions
	// (17.5%) are represented by contrast patterns").
	res.TotalDriverCost = mining.TotalPathCost(slowAWG) + slowAWG.ReducedCost
	if slowImpact.Dscn > 0 {
		res.DriverCostShare = float64(slowImpact.Dwait+slowImpact.Drun) / float64(slowImpact.Dscn)
	}

	res.Patterns = patterns
	res.NumContrasts = len(contrasts)
	for _, c := range contrasts {
		if c.SlowOnly {
			res.SlowOnlyContrasts++
		} else {
			res.RatioContrasts++
		}
	}
	res.SlowMetas = len(slowMetas)
	res.FastMetas = len(fastMetas)
	res.SegmentsSlow = segSlow
	res.SegmentsFast = segFast
	res.ITC = mining.ITC(patterns, cfg.Tslow, res.TotalDriverCost)
	res.TTC = mining.TTC(patterns, res.TotalDriverCost)
	res.ReducedCost = slowAWG.ReducedCost
	res.KeptCost = slowAWG.KeptCost
	if total := slowAWG.ReducedCost + slowAWG.KeptCost; total > 0 {
		res.ReducedShare = float64(slowAWG.ReducedCost) / float64(total)
	}
	res.SlowAWG = slowAWG
	rankSpan.End()
	rec.Progress("causality_rank", 1, 1)
}

// classesPartial is one shard's contribution to a causality pass: the
// unreduced AWG forest of each contrast class plus the slow class's
// impact partial, all measured off the same Wait Graphs.
type classesPartial struct {
	slow, fast *awg.Graph
	slowImpact *impact.Partial
}

// aggregateClasses builds both contrast classes' Aggregated Wait Graphs
// and the slow class's impact metrics in one shard-and-merge sweep over
// the classed refs (fast and slow, none in between). A stream holding
// instances of both classes is fetched and indexed once: each shard
// streams its instances' Wait Graphs through two incremental aggregators
// and the slow-class partial, all three sharing the shard's one filter
// resolver. The per-shard forests are merged in shard-index order before
// the non-optimizable reduction runs on the merged result.
func (a *Analyzer) aggregateClasses(classed []trace.InstanceRef, cfg CausalityConfig) (slowAWG, fastAWG *awg.Graph, slowImpact impact.Metrics) {
	awgOpts := awg.Options{MaxDepth: cfg.MaxAWGDepth, Reduce: !cfg.DisableReduce}
	shardOpts := awgOpts
	shardOpts.Reduce = false // reduction must see the merged forest

	shards := a.shards(classed)
	parts := engine.Map(len(shards), a.engineOptions("causality_aggregate"), func(i int) classesPartial {
		fc := trace.NewFilterCache(cfg.Filter)
		slow := awg.NewAggregatorOn(fc, shardOpts)
		fast := awg.NewAggregatorOn(fc, shardOpts)
		p := impact.NewPartial()
		a.imp.GraphsOver(shards[i].Refs, func(ref trace.InstanceRef, g *waitgraph.Graph) {
			if classify(a.src.InstanceMeta(ref), cfg.Tfast, cfg.Tslow) == slowClass {
				slow.Add(g)
				p.AddGraph(g, fc)
			} else {
				fast.Add(g)
			}
		})
		return classesPartial{slow: slow.Partial(), fast: fast.Partial(), slowImpact: p}
	})

	slowFinal := awg.NewAggregator(cfg.Filter, awgOpts)
	fastFinal := awg.NewAggregator(cfg.Filter, awgOpts)
	imp := impact.NewPartial()
	for _, pt := range parts {
		slowFinal.Merge(pt.slow)
		fastFinal.Merge(pt.fast)
		imp.Merge(pt.slowImpact)
	}
	return slowFinal.Finish(), fastFinal.Finish(), imp.Metrics
}

// TopCoverage reports the ranking coverage of the top fraction of
// patterns (Table 3).
func (r *CausalityResult) TopCoverage(fraction float64) float64 {
	return mining.TopCoverage(r.Patterns, fraction)
}
