package core

import (
	"testing"

	"tracescope/internal/mining"
	"tracescope/internal/scenario"
	"tracescope/internal/sigset"
	"tracescope/internal/trace"
)

func TestLocatePattern(t *testing.T) {
	a := NewAnalyzer(testCorpus(t))
	tfast, tslow, _ := scenario.Thresholds(scenario.WebPageNavigation)
	res, err := a.Causality(CausalityConfig{Scenario: scenario.WebPageNavigation, Tfast: tfast, Tslow: tslow})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) == 0 {
		t.Skip("no patterns in this corpus")
	}
	// The top pattern must be locatable in at least one slow instance —
	// it was mined from them.
	occ := a.LocatePattern(res, res.Patterns[0], nil, 8)
	if len(occ) == 0 {
		t.Fatal("top pattern not found in any slow instance")
	}
	for i := 1; i < len(occ); i++ {
		if occ[i].Instance.Duration() > occ[i-1].Instance.Duration() {
			t.Fatal("occurrences not sorted slowest first")
		}
	}
	for _, o := range occ {
		if o.Instance.Duration() <= res.Tslow {
			t.Error("occurrence not in the slow class")
		}
		if o.Instance.Scenario != scenario.WebPageNavigation {
			t.Error("occurrence from the wrong scenario")
		}
	}
	// A pattern with an impossible signature locates nothing.
	fake := mining.Pattern{Tuple: sigset.New([]string{"nosuch.sys!Op"}, nil, nil)}
	if got := a.LocatePattern(res, fake, nil, 8); len(got) != 0 {
		t.Errorf("impossible pattern located %d instances", len(got))
	}
}

func TestImpactByComponent(t *testing.T) {
	s := scenario.MotivatingCase()
	a := NewAnalyzer(trace.NewCorpus(s))
	comps := a.ImpactByComponent(nil, nil)
	if len(comps) == 0 {
		t.Fatal("no components")
	}
	byModule := map[string]ComponentImpact{}
	for _, c := range comps {
		byModule[c.Module] = c
	}
	// The case's dominant waits are in fv.sys (UI + worker on the
	// FileTable lock) and fs.sys (MDU waiters + the CM read).
	if byModule["fv.sys"].Dwait == 0 {
		t.Error("fv.sys has no wait impact")
	}
	if byModule["fs.sys"].Dwait == 0 {
		t.Error("fs.sys has no wait impact")
	}
	// se.sys burns decrypt CPU on the worker.
	if byModule["se.sys"].Drun == 0 {
		t.Error("se.sys has no CPU impact")
	}
	// Sorted by Dwait descending.
	for i := 1; i < len(comps); i++ {
		if comps[i].Dwait > comps[i-1].Dwait {
			t.Fatal("not sorted by Dwait")
		}
	}
	// The sum of per-module Dwait equals the aggregate Dwait.
	var sum trace.Duration
	for _, c := range comps {
		sum += c.Dwait
	}
	m := a.Impact(trace.AllDrivers(), "")
	if sum != m.Dwait {
		t.Errorf("component Dwait sum %v != aggregate %v", sum, m.Dwait)
	}
}
