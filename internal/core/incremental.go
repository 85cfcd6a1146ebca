package core

import (
	"fmt"
	"sort"
	"sync/atomic"

	"tracescope/internal/awg"
	"tracescope/internal/engine"
	"tracescope/internal/impact"
	"tracescope/internal/mining"
	"tracescope/internal/obs"
	"tracescope/internal/trace"
	"tracescope/internal/waitgraph"
)

// IncrementalConfig parameterises a resumable analysis. Unlike the batch
// CausalityConfig, thresholds and the component filter are fixed up
// front: every arriving instance is classified into its contrast class
// as its stream is ingested, so they cannot change after the fact
// without re-ingesting the corpus.
type IncrementalConfig struct {
	// Filter names the components under analysis. Nil means all drivers.
	Filter *trace.ComponentFilter
	// Thresholds returns the fast/slow developer thresholds for a
	// scenario. ok=false means the scenario keeps impact metrics only
	// (no contrast classes, no causality queries). The function must be
	// pure: it is called from concurrent warm-up workers and its answer
	// for a scenario must never change across calls.
	Thresholds func(scenario string) (tfast, tslow trace.Duration, ok bool)
	// Workers bounds the IngestSource pool. Zero means GOMAXPROCS.
	Workers int
	// Recorder receives ingest/query observability events. Nil means
	// no-op.
	Recorder obs.Recorder

	// only restricts the fold to one scenario's instances ("" folds every
	// instance): how core.Analyzer scopes a fold it holds — unexported, so
	// not something a facade caller can set.
	only string
}

// scenarioState is the persistent per-scenario analysis state: the
// running impact partial over every instance and over the slow class,
// and three disjoint unreduced AWG aggregations — the two contrast
// classes', and one of every instance in neither (without thresholds,
// every instance). An instance's graph goes into exactly one, so the
// all-instances AWG a corpus diff compares is the three merged. memo
// holds the scenario's last finished answer until its next fold.
type scenarioState struct {
	tfast, tslow trace.Duration
	classed      bool // thresholds known: instances are classified

	instances int
	fastCount int
	slowCount int

	impact     *impact.Partial // all instances
	slowImpact *impact.Partial // slow class only
	fast, slow *awg.Aggregator // unreduced forests per contrast class
	between    *awg.Aggregator // and of every instance in neither

	memo atomic.Pointer[answerMemo]
}

// answerMemo is a scenario's finished answer to its state as it stands:
// the finished slow-class AWG, and the causality result mined under
// params once a Causality call has asked. The writer (ingest, Merge)
// drops it whenever it changes the scenario's state, so a memo that is
// there is current; readers fill it, and share what it holds read-only.
// It costs one finished slow graph plus one result per scenario unchanged
// since its last query. The finished fast graph is not kept: only a
// different k on the same state needs it again.
type answerMemo struct {
	params mining.Params    // the applied parameters res was mined under
	slow   *awg.Graph       // nil when the scenario has no slow instance
	res    *CausalityResult // nil when only SlowAWG has asked
}

// Incremental is the analysis state everything folds into: streams are
// folded in one at a time with Ingest (or in parallel with
// IngestSource), and Impact/Causality answer queries over everything
// ingested so far without disturbing the state — an answer is computed
// from clones of the persistent forests, which stay unreduced, so
// ingestion can continue afterwards. Each scenario keeps its last
// finished answer until the next fold touches it: asking an unchanged
// question again returns the same result, not a recomputed one. The
// daemon feeds one as uploads arrive, Diff builds one per side, and the
// batch Analyzer folds one over its corpus and holds it.
//
// Determinism contract: after ingesting streams 1..N in any arrival
// order — one at a time, or split any way between partial states merged
// with Merge in any order — Impact and Causality results are bit-for-bit
// identical. Every accumulation the state holds is commutative and
// associative — impact partials are sums over disjoint streams, AWG
// forests merge by signature-keyed node union with C/N sums and MaxC
// maximum, and are read back in sorted order — and the one
// order-sensitive step, the non-optimizable reduction, runs on a clone
// of the complete forest at query time. A parallel fold leans on exactly
// this: which of its workers folds which stream is left to the
// scheduler (foldStreams).
//
// Queries read the folded state and at most fill a scenario's answer
// memo (atomically), so any number may run at once; Ingest and Merge
// need exclusive access (the tracescoped daemon puts them behind the
// write side of one RWMutex, the Analyzer finishes folding before it
// publishes the state), and drop the memo of every scenario they touch.
// Answers are shared between the callers that ask the same question and
// are read-only: a caller must not modify a CausalityResult's patterns
// or its graphs. Ingest must see each stream exactly once, and
// stream-disjoint states only may be merged — the impact partials panic
// on a stream index they have already covered (impact.Partial).
type Incremental struct {
	cfg    IncrementalConfig
	filter *trace.ComponentFilter
	rec    obs.Recorder

	// work is the scratch streams are folded on: the state's own for a
	// long-lived Incremental, its worker's for a fold's partial state
	// (foldStreams).
	work *scratch

	streams   int
	events    int
	instances int
	totalDur  trace.Duration

	global *impact.Partial // impact over every instance, any scenario
	scen   map[string]*scenarioState
}

// scratch is the working set of one stream's fold, owned by whoever is
// folding — one engine worker, or a long-lived Incremental — and used
// again for its next stream: the Wait-Graph builder with its node and
// child-list arenas, the filter resolver with its signature table and
// walk marks, the buffer an impact measurement lists its waits in, and
// the buffers a lazy source decodes into. Between streams it holds no
// stream and no graph (Builder.Release, FilterCache.Forget), and nothing
// an analysis state keeps points into it.
type scratch struct {
	b     waitgraph.Builder
	fc    *trace.FilterCache
	waits []impact.Wait
	dec   trace.Scratch
}

func newScratch(filter *trace.ComponentFilter) *scratch {
	return &scratch{fc: trace.NewFilterCache(filter)}
}

// NewIncremental prepares empty incremental analysis state.
func NewIncremental(cfg IncrementalConfig) *Incremental {
	if cfg.Filter == nil {
		cfg.Filter = trace.AllDrivers()
	}
	return newIncrementalOn(cfg, newScratch(cfg.Filter))
}

// newIncrementalOn is NewIncremental folding on the caller's scratch
// (whose resolver must wrap cfg.Filter, which must be set).
func newIncrementalOn(cfg IncrementalConfig, work *scratch) *Incremental {
	return &Incremental{
		cfg:    cfg,
		filter: cfg.Filter,
		rec:    obs.OrNop(cfg.Recorder),
		work:   work,
		global: impact.NewPartial(),
		scen:   make(map[string]*scenarioState),
	}
}

// NumStreams returns the number of streams ingested so far.
func (inc *Incremental) NumStreams() int { return inc.streams }

// NumEvents returns the total events across ingested streams.
func (inc *Incremental) NumEvents() int { return inc.events }

// NumInstances returns the total scenario instances ingested.
func (inc *Incremental) NumInstances() int { return inc.instances }

// TotalDuration sums the time spans of ingested streams.
func (inc *Incremental) TotalDuration() trace.Duration { return inc.totalDur }

// Scenarios returns the sorted scenario names seen so far with instance
// counts.
func (inc *Incremental) Scenarios() []trace.ScenarioCount {
	names := make([]string, 0, len(inc.scen))
	for name := range inc.scen {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]trace.ScenarioCount, 0, len(names))
	for _, name := range names {
		out = append(out, trace.ScenarioCount{Name: name, Instances: inc.scen[name].instances})
	}
	return out
}

// state finds or creates the persistent state for one scenario, fixing
// its thresholds on first sight.
func (inc *Incremental) state(scenario string) *scenarioState {
	sc, ok := inc.scen[scenario]
	if !ok {
		forest := func() *awg.Aggregator {
			return awg.NewAggregatorOn(inc.work.fc, awg.Options{})
		}
		sc = &scenarioState{
			impact: impact.NewPartial(), slowImpact: impact.NewPartial(),
			fast: forest(), slow: forest(), between: forest(),
		}
		if inc.cfg.Thresholds != nil {
			tf, ts, classed := inc.cfg.Thresholds(scenario)
			if classed && tf > 0 && ts > tf {
				sc.tfast, sc.tslow, sc.classed = tf, ts, true
			}
		}
		inc.scen[scenario] = sc
	}
	return sc
}

// Ingest folds one stream into the analysis state, each instance once:
// its Wait Graph is built once, measured by one impact walk — the global,
// the scenario's and, for a slow instance, the slow class's partial add
// that measurement — and aggregated into the one forest of its scenario
// its duration puts it in. Every consumer (the daemon, Diff, the
// Analyzer) runs this same loop body. The builder, the resolver and the
// measurement buffer are the state's scratch and let go of the stream
// when the fold ends, so the state keeps aggregates, never the stream.
// streamIndex is the stream's index in the corpus (the value EventIDs
// embed); callers must feed each stream exactly once, and indices must
// be unique.
func (inc *Incremental) Ingest(streamIndex int, s *trace.Stream) {
	inc.ingest(streamIndex, s, s.Duration())
}

// ingest is Ingest for a caller that knows the stream's duration (a
// source's index records it), so the events are not scanned for it.
func (inc *Incremental) ingest(streamIndex int, s *trace.Stream, dur trace.Duration) {
	sp := inc.rec.Start("ingest_stream")
	defer sp.End()
	b, fc := &inc.work.b, inc.work.fc
	defer fc.Forget()
	defer b.Release()

	b.Reset(s, streamIndex, waitgraph.Options{})
	folded := 0
	for _, in := range s.Instances {
		if inc.cfg.only != "" && in.Scenario != inc.cfg.only {
			continue
		}
		folded++
		g := b.Instance(in)
		m := impact.Measure(g, fc, inc.work.waits)
		inc.work.waits = m.Waits
		sc := inc.state(in.Scenario)
		sc.memo.Store(nil)
		inc.global.Add(m)
		sc.impact.Add(m)
		sc.instances++
		switch sc.class(in) {
		case fastClass:
			sc.fast.Add(g)
			sc.fastCount++
		case slowClass:
			sc.slow.Add(g)
			sc.slowImpact.Add(m)
			sc.slowCount++
		default:
			sc.between.Add(g)
		}
	}

	inc.streams++
	inc.events += len(s.Events)
	inc.instances += folded
	inc.totalDur += dur
	inc.rec.Add("core_streams_ingested_total", 1)
	inc.rec.Add("core_instances_ingested_total", int64(folded))
}

// Merge folds another incremental state into this one. Both must have
// been built with the same configuration (filter, thresholds); the
// receiver adopts the other's forests, and other must not be used
// afterwards.
func (inc *Incremental) Merge(other *Incremental) {
	if other == nil {
		return
	}
	inc.streams += other.streams
	inc.events += other.events
	inc.instances += other.instances
	inc.totalDur += other.totalDur
	inc.global.Merge(other.global)

	// Sorted order for determinism of any recorder hooks below; the
	// merges themselves are commutative.
	names := make([]string, 0, len(other.scen))
	for name := range other.scen {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		o := other.scen[name]
		sc := inc.state(name)
		sc.memo.Store(nil)
		sc.instances += o.instances
		sc.fastCount += o.fastCount
		sc.slowCount += o.slowCount
		sc.impact.Merge(o.impact)
		sc.slowImpact.Merge(o.slowImpact)
		sc.fast.Merge(o.fast.Partial())
		sc.slow.Merge(o.slow.Partial())
		sc.between.Merge(o.between.Partial())
	}
}

// IngestSource folds every not-yet-ingested stream of src — indices
// [NumStreams(), src.NumStreams()) — into the state, in parallel (see
// foldStreams). Results are bit-for-bit identical at any worker count.
// This is the daemon's warm-up over the corpus it owns; it assumes the
// state was fed streams 0..NumStreams()-1 of the same corpus (or
// nothing).
func (inc *Incremental) IngestSource(src trace.Source) error {
	start := inc.streams
	n := src.NumStreams() - start
	if n <= 0 {
		return nil
	}
	sp := inc.rec.Start("ingest_warmup")
	defer sp.End()
	streams := make([]int, n)
	for k := range streams {
		streams[k] = start + k
	}
	return inc.foldStreams(src, "ingest_warmup", streams)
}

// foldStreams is the one loop every corpus-sized fold runs — the
// daemon's warm-up, each side of a Diff, the Analyzer's fold
// — over streams none of which is listed twice or was ingested before
// (engine.Fold). Each worker owns one scratch (worker 0 the receiver's)
// and one partial state on it, and folds whichever stream the shared
// cursor hands it next in the memory its previous stream used
// (trace.StreamInto, waitgraph.Builder.Reset): min(workers, streams)
// partial states and scratches whatever the corpus size, merged into the
// receiver once every stream is folded. Which worker folds which stream
// varies from run to run; the merged state does not (the determinism
// contract on Incremental). label names the engine run in recorded
// spans. The first fetch error stops every worker at its next pull,
// fails the whole fold and leaves the receiver as it was.
func (inc *Incremental) foldStreams(src trace.Source, label string, streams []int) error {
	cfg := inc.cfg
	cfg.Recorder = nil // partials are merged; counters recorded once below
	eng := engine.Options{Workers: cfg.Workers, Recorder: inc.cfg.Recorder, Label: label}
	parts, err := engine.Fold(len(streams), eng, func(worker int) *Incremental {
		if worker == 0 {
			return newIncrementalOn(cfg, inc.work)
		}
		return newIncrementalOn(cfg, newScratch(cfg.Filter))
	}, func(p *Incremental, k int) error {
		i := streams[k]
		s, err := trace.StreamInto(src, i, &p.work.dec)
		if err != nil {
			return fmt.Errorf("core: folding stream %d: %w", i, err)
		}
		// StreamMeta scans a resident stream for its duration — here,
		// on the worker, once — and reads a lazy source's from its index.
		p.ingest(i, s, src.StreamMeta(i).Duration)
		return nil
	})
	if err != nil {
		return err
	}
	sp := inc.rec.Start(label + "_merge")
	defer sp.End()
	beforeStreams, beforeInstances := inc.streams, inc.instances
	for _, p := range parts {
		inc.Merge(p)
	}
	inc.rec.Add("core_streams_ingested_total", int64(inc.streams-beforeStreams))
	inc.rec.Add("core_instances_ingested_total", int64(inc.instances-beforeInstances))
	return nil
}

// Impact returns the impact metrics over every ingested instance of the
// named scenario ("" means every instance).
func (inc *Incremental) Impact(scenario string) impact.Metrics {
	sp := inc.rec.Start("impact_analysis")
	defer sp.End()
	return inc.impactOf(scenario)
}

// impactOf reads the named scope's impact partial.
func (inc *Incremental) impactOf(scenario string) impact.Metrics {
	if scenario == "" {
		return inc.global.Metrics
	}
	sc, ok := inc.scen[scenario]
	if !ok {
		return impact.Metrics{}
	}
	return sc.impact.Metrics
}

// Causality answers a causality query over everything ingested so far,
// using the thresholds fixed at ingest time. The persistent forests are
// cloned and only the clones reduced, so the state remains valid for
// further ingestion and queries. Until the next fold into the scenario,
// the same question returns the same result, which callers share and
// must not modify.
func (inc *Incremental) Causality(scenario string, params mining.Params) (*CausalityResult, error) {
	sc, err := inc.classedState(scenario)
	if err != nil {
		return nil, err
	}
	cfg := CausalityConfig{
		Scenario: scenario,
		Tfast:    sc.tfast,
		Tslow:    sc.tslow,
		Filter:   inc.filter,
		Mining:   params,
	}
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	total := inc.rec.Start("causality_analysis")
	defer total.End()
	return inc.answer(sc, cfg), nil
}

// classedState returns the state of a scenario that has instances and
// contrast classes — what a causality query needs.
func (inc *Incremental) classedState(scenario string) (*scenarioState, error) {
	sc, ok := inc.scen[scenario]
	if !ok || sc.instances == 0 {
		return nil, fmt.Errorf("core: no instances of scenario %q", scenario)
	}
	if !sc.classed {
		return nil, fmt.Errorf("core: no thresholds configured for scenario %q; causality needs contrast classes fixed at ingest time", scenario)
	}
	return sc, nil
}

// answer is the query tail both Incremental.Causality and
// Analyzer.Causality end in: the memoised result when it was mined under
// the same parameters, else clone the scenario's class forests, finish
// the clones (finishClone; the memo's slow graph stands in for its own)
// and mine them, and memoise that. cfg has its defaults applied and
// carries sc's thresholds. It reads the folded state and fills only the
// memo, so concurrent queries may share one; two that miss at once both
// mine, and the last to finish is kept.
func (inc *Incremental) answer(sc *scenarioState, cfg CausalityConfig) *CausalityResult {
	inc.rec.Add("causality_instances_total", int64(sc.instances))
	inc.rec.Add("causality_fast_total", int64(sc.fastCount))
	inc.rec.Add("causality_slow_total", int64(sc.slowCount))
	memo := sc.memo.Load()
	if memo != nil && memo.res != nil && memo.params == cfg.Mining {
		inc.rec.Add("causality_memo_hits_total", 1)
		return memo.res
	}
	res := &CausalityResult{
		Scenario:  cfg.Scenario,
		Tfast:     cfg.Tfast,
		Tslow:     cfg.Tslow,
		Instances: sc.instances,
		FastCount: sc.fastCount,
		SlowCount: sc.slowCount,
	}
	var slowAWG *awg.Graph
	if sc.slowCount > 0 {
		if memo != nil {
			slowAWG = memo.slow
		} else {
			slowAWG = finishClone(inc.filter, sc.slow)
		}
		fastAWG := finishClone(inc.filter, sc.fast)
		finishCausality(inc.rec, cfg, res, slowAWG, fastAWG, sc.slowImpact.Metrics)
	}
	sc.memo.Store(&answerMemo{params: cfg.Mining, slow: slowAWG, res: res})
	return res
}

// SlowAWG returns the Aggregated Wait Graph of the scenario's slow class
// — the CausalityResult.SlowAWG a Causality call would return, without
// mining it. The errors are Causality's; a scenario none of whose
// instances is slow yet has no such graph, and the result is nil. The
// graph is memoised with the scenario's answer and shared with every
// caller until the next fold into the scenario: it must not be modified.
func (inc *Incremental) SlowAWG(scenario string) (*awg.Graph, error) {
	sc, err := inc.classedState(scenario)
	if err != nil || sc.slowCount == 0 {
		return nil, err
	}
	if memo := sc.memo.Load(); memo != nil {
		return memo.slow, nil
	}
	slowAWG := finishClone(inc.filter, sc.slow)
	sc.memo.CompareAndSwap(nil, &answerMemo{slow: slowAWG})
	return slowAWG, nil
}

// finishClone clones unreduced persistent forests and finishes the merge
// of the clones under the paper's options (awg.DefaultOptions: the
// non-optimizable reduction on) — the exact counterpart of the batch
// path's final merge-then-reduce aggregator, leaving the persistent
// forests untouched. Disjoint forests merge, node for node, into the one
// their graphs would have been aggregated into together.
func finishClone(filter *trace.ComponentFilter, forests ...*awg.Aggregator) *awg.Graph {
	final := awg.NewAggregator(filter, awg.DefaultOptions())
	for _, ag := range forests {
		final.Merge(ag.Partial().Clone())
	}
	return final.Finish()
}

// Snapshot deep-copies the analysis state: every impact partial and
// every unreduced forest is cloned, so the receiver can keep ingesting
// while the snapshot answers long-running queries (the tracescoped
// /diff endpoint takes one under the read lock and diffs it outside).
// The snapshot shares the immutable configuration — filter, thresholds
// function, recorder — with the receiver.
func (inc *Incremental) Snapshot() *Incremental {
	snap := NewIncremental(inc.cfg)
	snap.streams = inc.streams
	snap.events = inc.events
	snap.instances = inc.instances
	snap.totalDur = inc.totalDur
	snap.global = inc.global.Clone()
	for name, sc := range inc.scen {
		snap.scen[name] = sc.clone(snap.work.fc)
	}
	return snap
}

// clone deep-copies one scenario's state via the same clone-then-merge
// idiom queries use; fc is the resolver of the state the copy joins.
func (sc *scenarioState) clone(fc *trace.FilterCache) *scenarioState {
	return &scenarioState{
		tfast: sc.tfast, tslow: sc.tslow, classed: sc.classed,
		instances: sc.instances, fastCount: sc.fastCount, slowCount: sc.slowCount,
		impact: sc.impact.Clone(), slowImpact: sc.slowImpact.Clone(),
		fast:    cloneAggregator(sc.fast, fc),
		slow:    cloneAggregator(sc.slow, fc),
		between: cloneAggregator(sc.between, fc),
	}
}

// cloneAggregator copies an unreduced aggregation into a fresh
// aggregator of the same configuration, resolving through fc (the
// owning state's).
func cloneAggregator(ag *awg.Aggregator, fc *trace.FilterCache) *awg.Aggregator {
	c := awg.NewAggregatorOn(fc, awg.Options{})
	c.Merge(ag.Partial().Clone())
	return c
}
