package core

import (
	"fmt"
	"sort"
	"strings"

	"tracescope/internal/awg"
	"tracescope/internal/impact"
	"tracescope/internal/mining"
	"tracescope/internal/obs"
	"tracescope/internal/trace"
)

// DiffOptions tunes a corpus-vs-corpus causality diff. Prefer the
// DiffOption functions (WithFilter, WithThresholds, WithMiningParams,
// WithTopEdges, plus the shared WithWorkers/WithRecorder) over building
// this struct directly.
type DiffOptions struct {
	// Options carries the fields shared with the Analyzer: worker pool
	// bound, recorder, and the thresholds function — scenarios it
	// classifies additionally get within-corpus contrast classes and
	// pattern-level movement; nil means alignment, impact, and edge
	// deltas only.
	Options
	// Filter names the components under analysis on both sides. Nil
	// means all drivers.
	Filter *trace.ComponentFilter
	// Mining bounds the contrast-mining step; zero values take the
	// paper's defaults (k=5).
	Mining mining.Params
	// TopEdges bounds the globally ranked regression/improvement lists.
	// Zero means 10; negative means unbounded.
	TopEdges int
}

func (o *DiffOptions) applyDefaults() {
	if o.Filter == nil {
		o.Filter = trace.AllDrivers()
	}
	o.Mining.ApplyDefaults()
	if o.TopEdges == 0 {
		o.TopEdges = 10
	}
}

// The cross-corpus ratio criterion: contrast selection reuses
// mining.DiscoverContrasts, whose ratio threshold is Tslow/Tfast.
// 100/125 sets the same ±25% band the pattern-level diff classifies
// with — a meta-pattern common to both corpora is a contrast when its
// candidate/baseline average-cost ratio exceeds 1.25.
const (
	diffRatioTfast = trace.Duration(100)
	diffRatioTslow = trace.Duration(125)
)

// CorpusShape summarises one side of the diff.
type CorpusShape struct {
	Streams   int
	Events    int
	Instances int
	Duration  trace.Duration
}

// ScenarioSide is one corpus's view of one scenario: alignment counts,
// impact metrics, and the aggregate costs of its reduced all-instances
// Aggregated Wait Graph.
type ScenarioSide struct {
	Instances int
	Fast      int
	Slow      int
	Impact    impact.Metrics
	// TotalCost is the root-cost total of the reduced AWG; ReducedCost
	// and KeptCost are its non-optimizable reduction accounting.
	TotalCost   trace.Duration
	ReducedCost trace.Duration
	KeptCost    trace.Duration
}

// ScenarioDiff is the full A/B comparison of one scenario present in
// both corpora.
type ScenarioDiff struct {
	Scenario string
	// Classed marks scenarios with developer thresholds: both sides
	// maintained fast/slow contrast classes and the pattern-level diff
	// ran.
	Classed      bool
	Tfast, Tslow trace.Duration

	Base ScenarioSide
	Cand ScenarioSide

	// DeltaC is the total-cost movement of the reduced all-instances
	// AWG (Cand.TotalCost - Base.TotalCost); ReducedDeltaC the movement
	// of the non-optimizable (pruned) portion — a regression that shows
	// up there got slower purely in hardware service nothing propagates
	// from.
	DeltaC        trace.Duration
	ReducedDeltaC trace.Duration

	// Edges is the complete edge-by-edge AWG diff, ranked worst
	// regression first (DeltaC descending, deterministic tie-break on
	// the chain key).
	Edges []awg.EdgeDelta

	// ABPatterns are the cross-corpus contrast patterns: full wait
	// chains of the candidate AWG containing a meta-pattern that is
	// either absent from the baseline (class A) or at least 25% more
	// expensive per occurrence in the candidate (class B), ranked by
	// average cost. NumContrasts splits by criterion.
	ABPatterns        []mining.Pattern
	NumContrasts      int
	CandOnlyContrasts int
	RatioContrasts    int

	// Patterns is the within-corpus pattern movement (slow-class
	// causality on each side, diffed); nil for unclassed scenarios.
	Patterns *PatternDiff
}

// RankedEdge is one globally ranked edge delta, tagged with its
// scenario.
type RankedEdge struct {
	Scenario string
	awg.EdgeDelta
}

// DiffResult is the outcome of a corpus-vs-corpus causality diff.
type DiffResult struct {
	Base CorpusShape
	Cand CorpusShape

	// Scenarios holds the matched scenarios' diffs, sorted by name.
	// BaseOnly and CandOnly list scenarios present in only one corpus
	// (sorted by name, with instance counts) — the unmatched sides of
	// the alignment table.
	Scenarios []ScenarioDiff
	BaseOnly  []trace.ScenarioCount
	CandOnly  []trace.ScenarioCount

	// TopRegressions ranks edges across scenarios by attributed (own)
	// cost movement, worst first; TopImprovements by attributed
	// improvement, best first. Ranking on OwnDeltaC rather than DeltaC
	// keeps a chain that merely relays a deeper regression from
	// crowding the board — the hop where the movement originates
	// carries the attribution. Both lists are bounded by
	// DiffOptions.TopEdges.
	TopRegressions  []RankedEdge
	TopImprovements []RankedEdge
}

// Diff runs the corpus-vs-corpus causality diff: both corpora are
// profiled out-of-core through the one fold loop (each stream decoded
// once, in parallel, bit-for-bit deterministic at any worker count), scenarios are aligned by name, and each matched scenario's
// aggregated wait graphs, impact metrics, and contrast patterns are
// compared. The zero-option call diffs all drivers with no thresholds;
// the tracescope facade layers the scenario catalogue's thresholds on
// by default.
func Diff(base, cand trace.Source, opts ...DiffOption) (*DiffResult, error) {
	var o DiffOptions
	for _, opt := range opts {
		opt.applyDiff(&o)
	}
	o.applyDefaults()
	rec := obs.OrNop(o.Recorder)
	sp := rec.Start("diff_analysis")
	defer sp.End()

	baseInc, err := diffProfile(base, o)
	if err != nil {
		return nil, fmt.Errorf("core: profiling baseline: %w", err)
	}
	candInc, err := diffProfile(cand, o)
	if err != nil {
		return nil, fmt.Errorf("core: profiling candidate: %w", err)
	}
	return diffStates(baseInc, candInc, o, rec), nil
}

// DiffIncrementals diffs two already-built incremental states — the
// tracescoped daemon's path: its live state (snapshotted) against a
// freshly profiled baseline corpus. Both states must have been built
// with the same filter and thresholds; the states are only read, never
// mutated: queries clone the forests they reduce — for the all-instances
// AWG compared here, a scenario's three. Only the mining, ranking, and
// observability options apply here — filter and thresholds were fixed
// when the states ingested.
func DiffIncrementals(base, cand *Incremental, opts ...DiffOption) *DiffResult {
	var o DiffOptions
	for _, opt := range opts {
		opt.applyDiff(&o)
	}
	// Profiling configuration comes from the states themselves.
	o.Filter = cand.filter
	o.applyDefaults()
	rec := obs.OrNop(o.Recorder)
	sp := rec.Start("diff_analysis")
	defer sp.End()
	return diffStates(base, cand, o, rec)
}

// diffProfile builds one side's incremental profile over a source.
func diffProfile(src trace.Source, o DiffOptions) (*Incremental, error) {
	inc := NewIncremental(IncrementalConfig{
		Filter:     o.Filter,
		Thresholds: o.Thresholds,
		Workers:    o.Workers,
		Recorder:   o.Recorder,
	})
	if err := inc.IngestSource(src); err != nil {
		return nil, err
	}
	return inc, nil
}

// diffStates aligns the two profiles' scenarios and assembles the
// result. Every ordering below is deterministic: scenario names are
// sorted, edge diffs walk forests by key, and the global ranking
// tie-breaks on (scenario, chain).
func diffStates(base, cand *Incremental, o DiffOptions, rec obs.Recorder) *DiffResult {
	res := &DiffResult{
		Base: CorpusShape{
			Streams: base.streams, Events: base.events,
			Instances: base.instances, Duration: base.totalDur,
		},
		Cand: CorpusShape{
			Streams: cand.streams, Events: cand.events,
			Instances: cand.instances, Duration: cand.totalDur,
		},
	}

	names := make([]string, 0, len(base.scen)+len(cand.scen))
	for name := range base.scen {
		names = append(names, name)
	}
	for name := range cand.scen {
		if _, dup := base.scen[name]; !dup {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	edges := 0
	for _, name := range names {
		bsc, inBase := base.scen[name]
		csc, inCand := cand.scen[name]
		switch {
		case !inCand:
			res.BaseOnly = append(res.BaseOnly, trace.ScenarioCount{Name: name, Instances: bsc.instances})
		case !inBase:
			res.CandOnly = append(res.CandOnly, trace.ScenarioCount{Name: name, Instances: csc.instances})
		default:
			sd := diffScenario(name, base, cand, bsc, csc, o)
			edges += len(sd.Edges)
			res.Scenarios = append(res.Scenarios, sd)
		}
	}
	rec.Add("diff_scenarios_total", int64(len(res.Scenarios)))
	rec.Add("diff_edges_total", int64(edges))

	res.TopRegressions, res.TopImprovements = rankEdges(res.Scenarios, o.TopEdges)
	return res
}

// diffScenario compares one matched scenario across the two profiles.
func diffScenario(name string, base, cand *Incremental, bsc, csc *scenarioState, o DiffOptions) ScenarioDiff {
	baseAWG := finishClone(o.Filter, bsc.fast, bsc.between, bsc.slow)
	candAWG := finishClone(o.Filter, csc.fast, csc.between, csc.slow)

	sd := ScenarioDiff{
		Scenario: name,
		Base:     scenarioSide(bsc, baseAWG),
		Cand:     scenarioSide(csc, candAWG),
	}
	sd.DeltaC = sd.Cand.TotalCost - sd.Base.TotalCost
	sd.ReducedDeltaC = sd.Cand.ReducedCost - sd.Base.ReducedCost

	sd.Edges = awg.DiffGraphs(baseAWG, candAWG)
	sortEdges(sd.Edges)

	// Cross-corpus contrast mining: the candidate corpus plays the slow
	// class, the baseline the fast class. Criterion 1 keeps chains
	// absent from the baseline; criterion 2 keeps common chains ≥25%
	// more expensive per occurrence in the candidate.
	candMetas, _ := mining.EnumerateMetas(candAWG, o.Mining.K, o.Mining.MaxSegments)
	baseMetas, _ := mining.EnumerateMetas(baseAWG, o.Mining.K, o.Mining.MaxSegments)
	contrasts := mining.DiscoverContrasts(candMetas, baseMetas, diffRatioTfast, diffRatioTslow)
	sd.ABPatterns = mining.DiscoverPatterns(candAWG, contrasts)
	sd.NumContrasts = len(contrasts)
	for _, c := range contrasts {
		if c.SlowOnly {
			sd.CandOnlyContrasts++
		} else {
			sd.RatioContrasts++
		}
	}

	// Pattern-level movement: each side's within-corpus slow-class
	// causality, diffed with the PatternDiff seed. Needs thresholds on
	// both sides.
	if bsc.classed && csc.classed {
		sd.Classed = true
		sd.Tfast, sd.Tslow = csc.tfast, csc.tslow
		bres, berr := base.Causality(name, o.Mining)
		cres, cerr := cand.Causality(name, o.Mining)
		if berr == nil && cerr == nil {
			pd := DiffPatterns(bres, cres)
			sd.Patterns = &pd
		}
	}
	return sd
}

// scenarioSide summarises one profile's view of a scenario off its
// reduced all-instances AWG.
func scenarioSide(sc *scenarioState, g *awg.Graph) ScenarioSide {
	return ScenarioSide{
		Instances:   sc.instances,
		Fast:        sc.fastCount,
		Slow:        sc.slowCount,
		Impact:      sc.impact.Metrics,
		TotalCost:   g.TotalCost(),
		ReducedCost: g.ReducedCost,
		KeptCost:    g.KeptCost,
	}
}

// chainKey is the deterministic tie-break key of an edge delta.
func chainKey(d awg.EdgeDelta) string { return strings.Join(d.Path, "\x00") }

// sortEdges ranks a scenario's edge deltas worst regression first.
func sortEdges(edges []awg.EdgeDelta) {
	sort.SliceStable(edges, func(i, j int) bool {
		if edges[i].DeltaC != edges[j].DeltaC {
			return edges[i].DeltaC > edges[j].DeltaC
		}
		return chainKey(edges[i]) < chainKey(edges[j])
	})
}

// rankEdges assembles the global regression and improvement rankings by
// attributed (own) cost movement.
func rankEdges(scenarios []ScenarioDiff, top int) (regressions, improvements []RankedEdge) {
	for _, sd := range scenarios {
		for _, e := range sd.Edges {
			switch {
			case e.OwnDeltaC > 0:
				regressions = append(regressions, RankedEdge{Scenario: sd.Scenario, EdgeDelta: e})
			case e.OwnDeltaC < 0:
				improvements = append(improvements, RankedEdge{Scenario: sd.Scenario, EdgeDelta: e})
			}
		}
	}
	rank := func(edges []RankedEdge, regress bool) {
		sort.SliceStable(edges, func(i, j int) bool {
			if edges[i].OwnDeltaC != edges[j].OwnDeltaC {
				if regress {
					return edges[i].OwnDeltaC > edges[j].OwnDeltaC
				}
				return edges[i].OwnDeltaC < edges[j].OwnDeltaC
			}
			if edges[i].Scenario != edges[j].Scenario {
				return edges[i].Scenario < edges[j].Scenario
			}
			return chainKey(edges[i].EdgeDelta) < chainKey(edges[j].EdgeDelta)
		})
	}
	rank(regressions, true)
	rank(improvements, false)
	if top >= 0 {
		if top < len(regressions) {
			regressions = regressions[:top]
		}
		if top < len(improvements) {
			improvements = improvements[:top]
		}
	}
	return regressions, improvements
}
