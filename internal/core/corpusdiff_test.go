package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"tracescope/internal/awg"
	"tracescope/internal/obs"
	"tracescope/internal/scenario"
	"tracescope/internal/trace"
	"tracescope/internal/waitgraph"
)

// diffCorpus generates one side of a corpus-vs-corpus diff. slowhw != 0
// scales the storage-hardware latencies — the injected regression the
// diff is supposed to pin down.
func diffCorpus(t *testing.T, slowhw float64) *trace.Corpus {
	t.Helper()
	return scenario.Generate(scenario.Config{Seed: 11, Streams: 10, Episodes: 6, SlowHW: slowhw})
}

// TestDiffIdenticalCorporaIsEmpty: diffing a corpus against itself must
// report exact alignment and no movement anywhere — no edge deltas, no
// ranked regressions, no contrasts, and every pattern stable.
func TestDiffIdenticalCorporaIsEmpty(t *testing.T) {
	base := diffCorpus(t, 0)
	cand := diffCorpus(t, 0)
	res, err := Diff(base, cand, WithThresholds(scenario.Thresholds))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.BaseOnly) != 0 || len(res.CandOnly) != 0 {
		t.Errorf("unmatched scenarios: base-only %v, cand-only %v", res.BaseOnly, res.CandOnly)
	}
	if len(res.Scenarios) == 0 {
		t.Fatal("no matched scenarios")
	}
	if res.Base != res.Cand {
		t.Errorf("corpus shapes differ: %+v vs %+v", res.Base, res.Cand)
	}
	if len(res.TopRegressions) != 0 || len(res.TopImprovements) != 0 {
		t.Errorf("rankings not empty: %d regressions, %d improvements",
			len(res.TopRegressions), len(res.TopImprovements))
	}
	for _, sd := range res.Scenarios {
		if sd.DeltaC != 0 || sd.ReducedDeltaC != 0 {
			t.Errorf("%s: ΔC=%v reduced ΔC=%v, want 0/0", sd.Scenario, sd.DeltaC, sd.ReducedDeltaC)
		}
		if len(sd.Edges) != 0 {
			t.Errorf("%s: %d edge deltas, want 0", sd.Scenario, len(sd.Edges))
		}
		if sd.Base != sd.Cand {
			t.Errorf("%s: sides differ:\n base %+v\n cand %+v", sd.Scenario, sd.Base, sd.Cand)
		}
		if sd.NumContrasts != 0 || len(sd.ABPatterns) != 0 {
			t.Errorf("%s: %d cross-corpus contrasts on identical sides", sd.Scenario, sd.NumContrasts)
		}
		if sd.Patterns != nil {
			p := sd.Patterns
			if len(p.Introduced)+len(p.Resolved)+len(p.Regressed)+len(p.Improved) != 0 {
				t.Errorf("%s: pattern movement on identical sides: %+v", sd.Scenario, p)
			}
		}
	}
}

// TestDiffAlignmentOneSided: a scenario present in only one corpus must
// land in the unmatched side of the alignment table, not crash or
// half-match.
func TestDiffAlignmentOneSided(t *testing.T) {
	full := diffCorpus(t, 0)
	scens := full.Scenarios()
	if len(scens) < 2 {
		t.Fatalf("fixture too small: %d scenarios", len(scens))
	}
	drop := scens[0].Name

	// A copy of the corpus with every instance of one scenario removed:
	// the streams (and their events) stay, the scenario vanishes.
	streams := make([]*trace.Stream, len(full.Streams))
	for i, s := range full.Streams {
		cp := *s
		cp.Instances = nil
		for _, in := range s.Instances {
			if in.Scenario != drop {
				cp.Instances = append(cp.Instances, in)
			}
		}
		streams[i] = &cp
	}
	stripped := trace.NewCorpus(streams...)

	res, err := Diff(full, stripped)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.BaseOnly) != 1 || res.BaseOnly[0].Name != drop || res.BaseOnly[0].Instances != scens[0].Instances {
		t.Errorf("BaseOnly = %+v, want [{%s %d}]", res.BaseOnly, drop, scens[0].Instances)
	}
	if len(res.CandOnly) != 0 {
		t.Errorf("CandOnly = %+v, want empty", res.CandOnly)
	}
	if len(res.Scenarios) != len(scens)-1 {
		t.Errorf("matched %d scenarios, want %d", len(res.Scenarios), len(scens)-1)
	}
	for _, sd := range res.Scenarios {
		if sd.Scenario == drop {
			t.Errorf("dropped scenario %s still matched", drop)
		}
	}

	// The mirror diff reports the same scenario as candidate-only.
	rev, err := Diff(stripped, full)
	if err != nil {
		t.Fatal(err)
	}
	if len(rev.CandOnly) != 1 || rev.CandOnly[0].Name != drop {
		t.Errorf("reverse CandOnly = %+v, want [{%s}]", rev.CandOnly, drop)
	}
}

// TestDiffEmptyCorpus: an empty side aligns nothing and ranks nothing.
func TestDiffEmptyCorpus(t *testing.T) {
	gen := diffCorpus(t, 0)
	empty := trace.NewCorpus()

	res, err := Diff(empty, gen)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scenarios) != 0 || len(res.BaseOnly) != 0 {
		t.Errorf("empty baseline: %d matched, %d base-only", len(res.Scenarios), len(res.BaseOnly))
	}
	if !reflect.DeepEqual(res.CandOnly, gen.Scenarios()) {
		t.Errorf("CandOnly = %+v, want the full scenario listing", res.CandOnly)
	}
	if len(res.TopRegressions) != 0 || len(res.TopImprovements) != 0 {
		t.Error("rankings over zero matched scenarios must be empty")
	}

	rev, err := Diff(gen, empty)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rev.BaseOnly, gen.Scenarios()) {
		t.Errorf("reverse BaseOnly = %+v, want the full scenario listing", rev.BaseOnly)
	}

	both, err := Diff(trace.NewCorpus(), trace.NewCorpus())
	if err != nil {
		t.Fatal(err)
	}
	if len(both.Scenarios)+len(both.BaseOnly)+len(both.CandOnly) != 0 {
		t.Errorf("empty-vs-empty = %+v, want nothing", both)
	}
}

// TestDiffSlowHardwareRegression is the oracle in miniature: against a
// same-seed corpus with storage-hardware latencies scaled 4x, the top
// globally ranked regression must be attributed to a hardware-service
// node — not to one of the wait chains that merely relay the slowdown.
func TestDiffSlowHardwareRegression(t *testing.T) {
	res, err := Diff(diffCorpus(t, 0), diffCorpus(t, 4), WithThresholds(scenario.Thresholds))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.BaseOnly)+len(res.CandOnly) != 0 {
		t.Fatalf("same-seed corpora must align exactly: %+v / %+v", res.BaseOnly, res.CandOnly)
	}
	for _, sd := range res.Scenarios {
		if sd.Base.Instances != sd.Cand.Instances {
			t.Errorf("%s: instance counts moved %d -> %d; latency scaling must not change alignment",
				sd.Scenario, sd.Base.Instances, sd.Cand.Instances)
		}
	}
	if len(res.TopRegressions) == 0 {
		t.Fatal("no ranked regressions against a 4x-slower-hardware corpus")
	}
	top := res.TopRegressions[0]
	if top.Kind != awg.Hardware {
		t.Errorf("top regression = %s (%s), want a hardware-service node", top.Label(), top.Chain())
	}
	if top.OwnDeltaC <= 0 || top.DeltaC <= 0 {
		t.Errorf("top regression ΔC=%v own=%v, want positive", top.DeltaC, top.OwnDeltaC)
	}
}

// TestDiffWorkerAndRecorderInvariance: the DiffResult is value-identical
// at any worker count, and attaching a metrics recorder observes the run
// without perturbing it.
func TestDiffWorkerAndRecorderInvariance(t *testing.T) {
	base := diffCorpus(t, 0)
	cand := diffCorpus(t, 4)
	want, err := Diff(base, cand, WithThresholds(scenario.Thresholds), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		got, err := Diff(base, cand, WithThresholds(scenario.Thresholds), WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: DiffResult differs from sequential run", workers)
		}
	}

	mem := obs.NewMemRecorder()
	got, err := Diff(base, cand, WithThresholds(scenario.Thresholds), WithWorkers(4), WithRecorder(mem))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("recorder-attached run differs from the plain run")
	}
	if mem.SpanCount("diff_analysis") != 1 {
		t.Errorf("diff_analysis spans = %d, want 1", mem.SpanCount("diff_analysis"))
	}
	if got, want := mem.CounterValue("diff_scenarios_total"), int64(len(want.Scenarios)); got != want {
		t.Errorf("diff_scenarios_total = %d, want %d", got, want)
	}
	if mem.CounterValue("diff_edges_total") == 0 {
		t.Error("diff_edges_total = 0, want movement against the slow-hardware corpus")
	}
}

// TestDiffIncrementalsOrderInvariance: the daemon path — two
// incremental states diffed directly — must not care what order the
// streams arrived in, and diffing a snapshot must equal diffing the
// live state.
func TestDiffIncrementalsOrderInvariance(t *testing.T) {
	base := diffCorpus(t, 0)
	cand := diffCorpus(t, 4)
	build := func(c *trace.Corpus, order []int) *Incremental {
		inc := NewIncremental(IncrementalConfig{Filter: trace.AllDrivers(), Thresholds: scenario.Thresholds})
		for _, si := range order {
			inc.Ingest(si, c.Streams[si])
		}
		return inc
	}
	identity := make([]int, len(base.Streams))
	for i := range identity {
		identity[i] = i
	}

	want := DiffIncrementals(build(base, identity), build(cand, identity))
	if len(want.Scenarios) == 0 {
		t.Fatal("no matched scenarios")
	}

	shufBase := build(base, rand.New(rand.NewSource(3)).Perm(len(base.Streams)))
	shufCand := build(cand, rand.New(rand.NewSource(8)).Perm(len(cand.Streams)))
	if got := DiffIncrementals(shufBase, shufCand); !reflect.DeepEqual(got, want) {
		t.Error("shuffled ingestion order changed the DiffResult")
	}
	if got := DiffIncrementals(shufBase, shufCand.Snapshot()); !reflect.DeepEqual(got, want) {
		t.Error("diffing a snapshot differs from diffing the live state")
	}
}

// TestDiffForestEqualsSequentialAggregate: the all-instances AWG a diff
// compares is derived — the merge of a scenario's three disjoint class
// forests, themselves merged across workers — so it is checked against
// an aggregate nothing is derived from: awg.Aggregate over every
// instance graph of the scenario in ref order, reduction on, per side.
// The edge diff of those two references must be ScenarioDiff.Edges and
// their cost totals ScenarioSide's, however the thresholds split the
// instances (catalogue: all three forests in use; every instance slow;
// every instance fast; no thresholds: everything between) and however
// the state was built (Diff at workers 1/2/4, DiffIncrementals over
// streams ingested one by one in shuffled order). An instance
// aggregated into two forests, or into none, moves a cost.
func TestDiffForestEqualsSequentialAggregate(t *testing.T) {
	base, cand := diffCorpus(t, 0), diffCorpus(t, 4)
	reference := func(c *trace.Corpus) map[string]*awg.Graph {
		graphs := make(map[string][]*waitgraph.Graph)
		for si, s := range c.Streams {
			b := waitgraph.NewBuilder(s, si, waitgraph.Options{})
			for _, in := range s.Instances {
				graphs[in.Scenario] = append(graphs[in.Scenario], b.Instance(in))
			}
		}
		out := make(map[string]*awg.Graph)
		for name, gs := range graphs {
			out[name] = awg.Aggregate(gs, trace.AllDrivers(), awg.DefaultOptions())
		}
		return out
	}
	refBase, refCand := reference(base), reference(cand)

	fixed := func(tfast, tslow trace.Duration) func(string) (trace.Duration, trace.Duration, bool) {
		return func(string) (trace.Duration, trace.Duration, bool) { return tfast, tslow, true }
	}
	variants := []struct {
		name       string
		thresholds func(string) (trace.Duration, trace.Duration, bool)
		// shape reports whether a scenario's side is split the way the
		// variant means to; some scenario (catalogue) or every one must be.
		shape func(ScenarioSide) bool
		every bool
	}{
		{"catalogue", scenario.Thresholds, func(s ScenarioSide) bool { return s.Fast > 0 && s.Slow > 0 && s.Fast+s.Slow < s.Instances }, false},
		{"all-slow", fixed(1, 2), func(s ScenarioSide) bool { return s.Slow == s.Instances }, true},
		{"all-fast", fixed(1<<60, 1<<61), func(s ScenarioSide) bool { return s.Fast == s.Instances }, true},
		{"no-thresholds", nil, func(s ScenarioSide) bool { return s.Fast == 0 && s.Slow == 0 }, true},
	}
	for _, v := range variants {
		check := func(label string, res *DiffResult) {
			t.Helper()
			if len(res.Scenarios) != len(refCand) {
				t.Fatalf("%s: %d matched scenarios, want %d", label, len(res.Scenarios), len(refCand))
			}
			shaped := 0
			for _, sd := range res.Scenarios {
				b, c := refBase[sd.Scenario], refCand[sd.Scenario]
				want := awg.DiffGraphs(b, c)
				sortEdges(want)
				if !reflect.DeepEqual(sd.Edges, want) {
					t.Errorf("%s: %s: %d edge deltas differ from the sequential aggregates' %d", label, sd.Scenario, len(sd.Edges), len(want))
				}
				for _, side := range []struct {
					name string
					got  ScenarioSide
					ref  *awg.Graph
				}{{"base", sd.Base, b}, {"cand", sd.Cand, c}} {
					if side.got.TotalCost != side.ref.TotalCost() || side.got.ReducedCost != side.ref.ReducedCost || side.got.KeptCost != side.ref.KeptCost {
						t.Errorf("%s: %s %s: total/reduced/kept %v/%v/%v, sequential aggregate %v/%v/%v", label, sd.Scenario, side.name,
							side.got.TotalCost, side.got.ReducedCost, side.got.KeptCost, side.ref.TotalCost(), side.ref.ReducedCost, side.ref.KeptCost)
					}
					if v.shape(side.got) {
						shaped++
					}
				}
			}
			if shaped == 0 || v.every && shaped != 2*len(res.Scenarios) {
				t.Errorf("%s: %d of %d scenario sides are split the way the variant intends", label, shaped, 2*len(res.Scenarios))
			}
		}
		for _, workers := range []int{1, 2, 4} {
			res, err := Diff(base, cand, WithThresholds(v.thresholds), WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("%s/Diff/workers=%d", v.name, workers), res)
		}
		build := func(c *trace.Corpus, seed int64) *Incremental {
			inc := NewIncremental(IncrementalConfig{Thresholds: v.thresholds})
			for _, si := range rand.New(rand.NewSource(seed)).Perm(len(c.Streams)) {
				inc.Ingest(si, c.Streams[si])
			}
			return inc
		}
		check(v.name+"/DiffIncrementals", DiffIncrementals(build(base, 3), build(cand, 8)))
	}
}
