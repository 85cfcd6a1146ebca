package core

import (
	"testing"

	"tracescope/internal/mining"
	"tracescope/internal/obs"
	"tracescope/internal/scenario"
)

// TestCausalityCache: the Analyzer answers a repeated Causality call
// from its memo — the same *CausalityResult — and a refold under other
// thresholds answers afresh, as does the refold back.
func TestCausalityCache(t *testing.T) {
	corpus := scenario.Generate(scenario.Config{Seed: 5, Streams: 8, Episodes: 8})
	an := NewAnalyzer(corpus, WithThresholds(scenario.Thresholds))
	name := scenario.BrowserTabCreate
	a := catalogueCausality(t, an, name)
	if b := catalogueCausality(t, an, name); a != b {
		t.Error("a repeated Causality call mined again")
	}
	tf, ts, _ := scenario.Thresholds(name)
	other, err := an.Causality(CausalityConfig{Scenario: name, Tfast: tf / 2, Tslow: ts * 2})
	if err != nil {
		t.Fatal(err)
	}
	if other == a || other.Tfast == a.Tfast {
		t.Error("a call under other thresholds returned the memoised answer")
	}
	c := catalogueCausality(t, an, name)
	if c == a {
		t.Error("a refold returned an answer of the fold it replaced")
	}
	sameResult(t, "refolded", c, a)
	if _, err := an.Causality(CausalityConfig{Scenario: "NoSuch", Tfast: tf, Tslow: ts}); err == nil {
		t.Error("unknown scenario must error")
	}
}

// forgetAnswers drops every memoised answer, so the next queries compute
// from the folded state alone.
func forgetAnswers(inc *Incremental) {
	for _, sc := range inc.scen {
		sc.memo.Store(nil)
	}
}

// memoAnswers are one state's answers to every catalogue scenario's
// questions.
type memoAnswers struct {
	slow       map[string]string // rendered SlowAWG, or the error
	res5, res2 map[string]*CausalityResult
	errs       map[string]string
}

// askAll asks every catalogue scenario's slow AWG and its causality at
// k 5 and 2, SlowAWG first or last.
func askAll(t *testing.T, inc *Incremental, awgFirst bool) memoAnswers {
	t.Helper()
	a := memoAnswers{slow: map[string]string{}, res5: map[string]*CausalityResult{},
		res2: map[string]*CausalityResult{}, errs: map[string]string{}}
	slowAWG := func(name string) {
		g, err := inc.SlowAWG(name)
		if err != nil {
			a.slow[name] = "error: " + err.Error()
			return
		}
		a.slow[name] = renderAWG(t, g)
	}
	causality := func(name string) {
		for _, k := range []int{5, 2} {
			res, err := inc.Causality(name, mining.Params{K: k})
			if err != nil {
				a.errs[name] = err.Error()
				return
			}
			if k == 5 {
				a.res5[name] = res
			} else {
				a.res2[name] = res
			}
		}
	}
	for _, name := range scenario.Selected() {
		if awgFirst {
			slowAWG(name)
			causality(name)
		} else {
			causality(name)
			slowAWG(name)
		}
	}
	return a
}

// sameAnswers compares a memoising state's answers with a fresh one's:
// results field for field with their graphs in rendered text.
func sameAnswers(t *testing.T, label string, got, want memoAnswers) {
	t.Helper()
	for _, name := range scenario.Selected() {
		if got.slow[name] != want.slow[name] {
			t.Fatalf("%s: %s: SlowAWG differs:\n%s\n--- fresh ---\n%s", label, name, got.slow[name], want.slow[name])
		}
		if got.errs[name] != want.errs[name] {
			t.Fatalf("%s: %s: error %q, fresh %q", label, name, got.errs[name], want.errs[name])
		}
		if want.errs[name] != "" {
			continue
		}
		sameResult(t, label+" "+name+" k=5", got.res5[name], want.res5[name])
		sameResult(t, label+" "+name+" k=2", got.res2[name], want.res2[name])
		if g, w := renderAWG(t, got.res5[name].SlowAWG), want.slow[name]; want.res5[name].SlowCount > 0 && g != w {
			t.Fatalf("%s: %s: the result's SlowAWG is not SlowAWG's graph", label, name)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
}

// TestCausalityMemoMatchesFresh: a state that answers between its
// ingests — Causality at k 5 and 2 and SlowAWG, in both call orders —
// answers after every ingest exactly what a state fed the same prefix
// answers with nothing memoised, and so after a Merge. Asked again
// without a fold in between, it returns the memoised result itself.
func TestCausalityMemoMatchesFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus generation in -short mode")
	}
	corpus := scenario.Generate(scenario.Config{Seed: 1, Streams: 48, Episodes: 6})
	cfg := IncrementalConfig{Thresholds: scenario.Thresholds, Workers: 1}
	inc, fresh := NewIncremental(cfg), NewIncremental(cfg)
	for si, s := range corpus.Streams {
		inc.Ingest(si, s)
		fresh.Ingest(si, s)
		forgetAnswers(fresh)
		got := askAll(t, inc, si%2 == 0)
		sameAnswers(t, "after stream "+s.ID, got, askAll(t, fresh, false))
		for name, res := range got.res2 { // k=2 was each scenario's last question
			if again, err := inc.Causality(name, mining.Params{K: 2}); err != nil || again != res {
				t.Fatalf("after stream %d: %s: an unchanged question was answered anew (%v)", si, name, err)
			}
			if g, err := inc.SlowAWG(name); err != nil || g != res.SlowAWG {
				t.Fatalf("after stream %d: %s: SlowAWG is not the memoised answer's graph (%v)", si, name, err)
			}
		}
	}

	// Two stream-disjoint halves, each asked everything, merged: the
	// receiver's memo must not survive the merge.
	half := len(corpus.Streams) / 2
	a, b := NewIncremental(cfg), NewIncremental(cfg)
	for si, s := range corpus.Streams {
		if si < half {
			a.Ingest(si, s)
		} else {
			b.Ingest(si, s)
		}
	}
	askAll(t, a, true)
	askAll(t, b, false)
	a.Merge(b)
	forgetAnswers(fresh)
	sameAnswers(t, "after Merge", askAll(t, a, false), askAll(t, fresh, true))
}

// TestCausalityMemoObservability: a memo hit counts as an answer in the
// causality_*_total counters and in causality_memo_hits_total, and runs
// no mining phase.
func TestCausalityMemoObservability(t *testing.T) {
	corpus := scenario.Generate(scenario.Config{Seed: 5, Streams: 8, Episodes: 8})
	rec := obs.NewMemRecorder()
	inc := NewIncremental(IncrementalConfig{Thresholds: scenario.Thresholds, Recorder: rec})
	last := len(corpus.Streams) - 1
	for si, s := range corpus.Streams[:last] {
		inc.Ingest(si, s)
	}
	name := scenario.BrowserTabCreate
	for i := 0; i < 3; i++ {
		if _, err := inc.Causality(name, mining.Params{}); err != nil {
			t.Fatal(err)
		}
	}
	snap := rec.Snapshot()
	if got := snap.Counter("causality_memo_hits_total"); got != 2 {
		t.Errorf("causality_memo_hits_total = %d, want 2", got)
	}
	if got, want := snap.Counter("causality_instances_total"), 3*int64(inc.scen[name].instances); got != want {
		t.Errorf("causality_instances_total = %d, want %d (every answer counts)", got, want)
	}
	for _, phase := range []string{"causality_enumerate", "causality_select", "causality_lift", "causality_rank"} {
		if h, _ := snap.Span(phase); h.Count != 1 {
			t.Errorf("%s ran %d times, want once", phase, h.Count)
		}
	}
	if h, _ := snap.Span("causality_analysis"); h.Count != 3 {
		t.Errorf("causality_analysis recorded %d times, want 3", h.Count)
	}

	// A fold into the scenario drops the memo: the next answer mines.
	before := inc.scen[name].instances
	inc.Ingest(last, corpus.Streams[last])
	if inc.scen[name].instances == before {
		t.Fatalf("the last stream holds no %s instance", name)
	}
	if _, err := inc.Causality(name, mining.Params{}); err != nil {
		t.Fatal(err)
	}
	if h, _ := rec.Snapshot().Span("causality_enumerate"); h.Count != 2 {
		t.Errorf("after an ingest, causality_enumerate ran %d times in all, want 2", h.Count)
	}
}
