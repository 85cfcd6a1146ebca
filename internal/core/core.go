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
	"slices"
	"sync"

	"tracescope/internal/awg"
	"tracescope/internal/impact"
	"tracescope/internal/mining"
	"tracescope/internal/obs"
	"tracescope/internal/trace"
)

// Options tunes how the analyzer schedules, classifies and observes its
// work. Prefer the Option functions (WithWorkers, WithRecorder,
// WithThresholds) over building this struct directly.
type Options struct {
	// Workers bounds the worker pool the fold runs on. Zero means
	// GOMAXPROCS; one folds inline on the calling goroutine. Results are
	// bit-for-bit identical at any setting: a stream is folded whole by
	// one worker, and what the workers' partial states accumulate merges
	// the same in any order and any split (see Incremental).
	Workers int
	// Recorder receives the pipeline's observability events. Nil means
	// no-op.
	Recorder obs.Recorder
	// Thresholds returns a scenario's fast/slow developer thresholds;
	// instances are classified with them as their streams are folded.
	// Nil means no scenario is classed up front, and every Causality
	// call folds under the thresholds it carries.
	Thresholds func(scenario string) (tfast, tslow trace.Duration, ok bool)
}

// Analyzer runs impact and causality analyses over one corpus source
// from one fold of it: the first analysis call sweeps the streams once
// through the per-stream fold the daemon and Diff use
// (Incremental.Ingest — one Wait Graph per instance, feeding the impact
// partials and the contrast-class forests), keeps the folded state, and
// every later call under the same configuration is answered from that
// state without touching a stream. The source may be an in-memory
// *trace.Corpus or a lazy out-of-core source (*trace.DirSource, usually
// wrapped in a *trace.CachedSource); results are identical either way.
//
// A fold's configuration is the component filter (compared by its
// patterns) and the thresholds: the function given with WithThresholds,
// with a Causality call's own Tfast/Tslow standing in for its scenario.
// Its scope is what the call asks for: a call naming a scenario folds
// only that scenario's instances, over only the streams the index says
// hold them; a call for "" folds every instance.
// A later call outside a one-scenario fold refolds over everything, and
// a call under a different configuration refolds under its own. The
// Analyzer holds one fold at a time, so no call sequence folds more than
// twice per configuration and a mismatch costs one sweep. What the held
// fold keeps in memory is aggregates — the impact partials' sums and the
// class forests — and the answers asked of them, never a stream.
//
// An Analyzer is safe for concurrent use: folds are built under a mutex,
// and answers read the held state, mutate only clones of its forests and
// are memoised in it per scenario (Incremental.Causality): the same
// question under the same fold returns the same, shared result.
type Analyzer struct {
	src  trace.Source
	opts Options
	rec  obs.Recorder

	mu     sync.Mutex
	held   *Incremental // the fold: fully folded, from then on only read
	err    error        // see Err
	graphs int64        // Wait Graphs built so far, by folds and by the extensions' walks
}

// NewAnalyzer prepares impact and causality analyses over a corpus
// source. Nothing is decoded until the first analysis call. Options
// configure scheduling, classification and observability:
//
//	an := core.NewAnalyzer(src, core.WithWorkers(8), core.WithRecorder(rec),
//		core.WithThresholds(scenario.Thresholds))
//
// With no options the analyzer uses GOMAXPROCS workers, classes no
// scenario up front and records nothing. When a recorder is set and the
// source is instrumentable (*trace.CachedSource, *trace.DirSource), the
// recorder is wired into the source too, so every layer reports into one
// registry.
func NewAnalyzer(src trace.Source, options ...Option) *Analyzer {
	var opts Options
	for _, opt := range options {
		opt.applyAnalyzer(&opts)
	}
	if opts.Recorder != nil {
		if rs, ok := src.(interface{ SetRecorder(obs.Recorder) }); ok {
			rs.SetRecorder(opts.Recorder)
		}
	}
	return &Analyzer{src: src, opts: opts, rec: obs.OrNop(opts.Recorder)}
}

// Err reports the stream-fetch failure that made the latest fold fail
// or, if it did not fail, the first one LocatePattern or
// ImpactByComponent has met since. No call answers over part of the
// corpus: on a failed fetch Causality returns the error, Impact returns
// zero Metrics and the two extensions return nil. A failed fold is not
// kept, so the next analysis call folds again, and a fold that succeeds
// clears Err. In-memory sources never fail.
func (a *Analyzer) Err() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.err
}

// GraphCacheStats reports Wait-Graph construction: Misses counts every
// graph built — by the Analyzer's folds and by the extensions' walks,
// each of which builds every graph it needs once and keeps none. Hits
// is always 0 (see impact.CacheStats).
func (a *Analyzer) GraphCacheStats() impact.CacheStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return impact.CacheStats{Misses: a.graphs}
}

// Impact measures the chosen components (nil means all drivers) over all
// instances of the named scenario ("" means every instance): step one of
// the approach, read off the fold's impact partials. If the fold fails
// the result is the zero Metrics; see Err.
func (a *Analyzer) Impact(filter *trace.ComponentFilter, scenario string) impact.Metrics {
	sp := a.rec.Start("impact_analysis")
	defer sp.End()
	if filter == nil {
		filter = trace.AllDrivers()
	}
	inc, err := a.foldFor(filter, scenario, nil)
	if err != nil {
		return impact.Metrics{}
	}
	return inc.impactOf(scenario)
}

// foldFor returns folded state that answers a call over scenario under
// filter and — for a Causality call — under caus's thresholds: the held
// fold when it serves the call, a new one (which replaces it) otherwise.
func (a *Analyzer) foldFor(filter *trace.ComponentFilter, scenario string, caus *CausalityConfig) (*Incremental, error) {
	a.mu.Lock()
	defer a.mu.Unlock()

	var cfg IncrementalConfig
	// Filters compare by their patterns: AllDrivers() is a new pointer
	// on every call.
	if f := a.held; f != nil && slices.Equal(f.filter.Patterns(), filter.Patterns()) && f.configuredFor(caus) {
		if f.cfg.only == "" || f.cfg.only == scenario {
			return f, nil
		}
		// The configuration is right and the scope too narrow: fold
		// everything, so no later call under this configuration folds
		// again.
		cfg = f.cfg
		cfg.only = ""
	} else {
		cfg = IncrementalConfig{
			Filter:     filter,
			Thresholds: a.opts.Thresholds,
			Workers:    a.opts.Workers,
			Recorder:   a.opts.Recorder,
			only:       scenario,
		}
		if caus != nil {
			cfg.Thresholds = withThresholds(a.opts.Thresholds, caus.Scenario, caus.Tfast, caus.Tslow)
		}
	}

	sp := a.rec.Start("analysis_fold")
	defer sp.End()
	var streams []int // the scope's streams: refs arrive grouped by stream
	for _, ref := range a.src.InstancesOf(cfg.only) {
		if n := len(streams); n == 0 || streams[n-1] != ref.Stream {
			streams = append(streams, ref.Stream)
		}
	}
	inc := NewIncremental(cfg)
	a.held = nil // one fold at a time: the old one is garbage while the new one grows
	if a.err = inc.foldStreams(a.src, "analysis_fold", streams); a.err != nil {
		return nil, a.err
	}
	a.graphs += int64(inc.global.Instances)
	a.held = inc
	return inc, nil
}

// configuredFor reports whether the state's thresholds are the ones a
// Causality call asks for; an Impact call (nil) does not depend on them.
func (inc *Incremental) configuredFor(caus *CausalityConfig) bool {
	if caus == nil {
		return true
	}
	if inc.cfg.Thresholds == nil {
		return false
	}
	tf, ts, ok := inc.cfg.Thresholds(caus.Scenario)
	return ok && tf == caus.Tfast && ts == caus.Tslow
}

// withThresholds is base with one scenario's thresholds replaced.
func withThresholds(base func(string) (trace.Duration, trace.Duration, bool), scenario string, tfast, tslow trace.Duration) func(string) (trace.Duration, trace.Duration, bool) {
	return func(name string) (trace.Duration, trace.Duration, bool) {
		if name == scenario {
			return tfast, tslow, true
		}
		if base == nil {
			return 0, 0, false
		}
		return base(name)
	}
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
// report. A result is memoised with the state it answers and shared by
// every caller that asks the same question, so it is read-only: do not
// modify Patterns (nor their tuples' signature slices) or SlowAWG.
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

// phaseRun wraps one causality phase in a span and reports its
// completion as a progress event, so CLIs see phases tick by live.
func phaseRun(rec obs.Recorder, name string, fn func()) {
	sp := rec.Start(name)
	fn()
	sp.End()
	rec.Progress(name, 1, 1)
}

// Causality runs step two of the approach for one scenario: the fold
// supplies the scenario's contrast-class forests, and the call clones,
// reduces and mines them — once per fold and mining parameters: a
// repeated call returns the memoised result, which is shared and must
// not be modified. If the fold fails the error is returned (and latched,
// see Err).
func (a *Analyzer) Causality(cfg CausalityConfig) (*CausalityResult, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	total := a.rec.Start("causality_analysis")
	defer total.End()

	// Metadata answers this without folding — or dropping the held fold
	// for a scenario the corpus does not have.
	if len(a.src.InstancesOf(cfg.Scenario)) == 0 {
		return nil, fmt.Errorf("core: no instances of scenario %q", cfg.Scenario)
	}
	inc, err := a.foldFor(cfg.Filter, cfg.Scenario, &cfg)
	if err != nil {
		return nil, err
	}
	sc, err := inc.classedState(cfg.Scenario)
	if err != nil {
		return nil, err
	}
	return inc.answer(sc, cfg), nil
}

// contrastClass is an instance's side of the developer thresholds.
type contrastClass uint8

const (
	unclassed contrastClass = iota // between the thresholds, or none known: in neither class
	fastClass
	slowClass
)

// class places an instance by its recorded duration (§4.2.1); a scenario
// without thresholds has no classes to be in.
func (sc *scenarioState) class(in trace.Instance) contrastClass {
	switch d := in.Duration(); {
	case !sc.classed:
	case d < sc.tfast:
		return fastClass
	case d > sc.tslow:
		return slowClass
	}
	return unclassed
}

// finishCausality runs the mining phases (enumerate, select, lift, rank)
// over the finished class AWGs and fills in the result's patterns and
// aggregates: the last step of Incremental.answer, which every causality
// query — the Analyzer's, the daemon's, a Diff's — ends in.
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

// TopCoverage reports the ranking coverage of the top fraction of
// patterns (Table 3).
func (r *CausalityResult) TopCoverage(fraction float64) float64 {
	return mining.TopCoverage(r.Patterns, fraction)
}
