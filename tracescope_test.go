package tracescope_test

import (
	"fmt"
	"testing"

	"tracescope"
	"tracescope/workload"
)

func TestPublicAPIRoundTrip(t *testing.T) {
	corpus := tracescope.Generate(tracescope.GenerateConfig{Seed: 2, Streams: 4, Episodes: 6})
	if corpus.NumInstances() == 0 {
		t.Fatal("empty corpus")
	}
	an := tracescope.NewAnalyzer(corpus)

	m := an.Impact(tracescope.AllDrivers(), "")
	if m.IAwait() <= 0 || m.IAwait() >= 1 {
		t.Errorf("IAwait = %v", m.IAwait())
	}

	tf, ts, ok := tracescope.Thresholds(tracescope.WebPageNavigation)
	if !ok {
		t.Fatal("no thresholds")
	}
	res, err := an.Causality(tracescope.CausalityConfig{
		Scenario: tracescope.WebPageNavigation, Tfast: tf, Tslow: ts,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SlowCount > 0 && len(res.Patterns) == 0 {
		t.Error("slow class but no patterns")
	}
}

func TestPublicCorpusIO(t *testing.T) {
	dir := t.TempDir()
	corpus := tracescope.Generate(tracescope.GenerateConfig{Seed: 3, Streams: 2, Episodes: 4})
	if err := tracescope.WriteCorpusDir(corpus, dir); err != nil {
		t.Fatal(err)
	}
	got, err := tracescope.ReadCorpusDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumEvents() != corpus.NumEvents() || got.NumInstances() != corpus.NumInstances() {
		t.Error("round trip lost data")
	}
}

func TestSelectedScenariosHaveThresholds(t *testing.T) {
	names := tracescope.SelectedScenarios()
	if len(names) != 8 {
		t.Fatalf("selected = %d, want 8", len(names))
	}
	for _, n := range names {
		if _, _, ok := tracescope.Thresholds(n); !ok {
			t.Errorf("no thresholds for %s", n)
		}
	}
}

func TestBaselinesPublic(t *testing.T) {
	corpus := tracescope.Generate(tracescope.GenerateConfig{Seed: 4, Streams: 2, Episodes: 4})
	if p, err := tracescope.CallGraphProfile(corpus); err != nil || p.TotalCPU <= 0 {
		t.Error("profile empty")
	}
	if r, err := tracescope.LockContention(corpus, tracescope.AllDrivers()); err != nil || r.TotalWait <= 0 {
		t.Error("contention empty")
	}
}

func TestWorkloadToolkit(t *testing.T) {
	k := workload.NewKernel(workload.KernelConfig{StreamID: "custom"})
	var th *workload.Thread
	th = k.Spawn("App", "UI", []string{"App!Main"}, workload.Seq(
		workload.Invoke("my.sys!DoWork",
			workload.WithLock("my:Lock", workload.Burn(2*workload.Millisecond))...,
		),
	), 0, func(end workload.Time) {
		k.RecordInstance(tracescope.Instance{Scenario: "Custom", TID: th.TID(), Start: 0, End: end})
	})
	k.Run(0)
	s := k.Finish()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	corpus := &tracescope.Corpus{}
	corpus.Add(s)
	m := tracescope.NewAnalyzer(corpus).Impact(tracescope.NewComponentFilter("my.sys"), "")
	if m.Dscn <= 0 {
		t.Error("custom workload not measured")
	}
	if ty, ok := workload.TypeOfFrame("se.sys!X"); !ok || ty.String() != "Storage Encryption" {
		t.Error("TypeOfFrame re-export broken")
	}
}

// ExampleGenerate demonstrates the end-to-end pipeline on a tiny,
// deterministic corpus.
func ExampleGenerate() {
	corpus := tracescope.Generate(tracescope.GenerateConfig{Seed: 1, Streams: 2, Episodes: 4})
	an := tracescope.NewAnalyzer(corpus)
	m := an.Impact(tracescope.AllDrivers(), "")
	fmt.Println("driver waiting dominates driver CPU:", m.IAwait() > m.IArun())
	// Output:
	// driver waiting dominates driver CPU: true
}

// ExampleMotivatingCase replays the paper's §2.2 case: a browser tab
// creation slowed past 800 ms by cost propagation across three drivers.
func ExampleMotivatingCase() {
	stream := tracescope.MotivatingCase()
	for _, in := range stream.Instances {
		if in.Scenario == tracescope.BrowserTabCreate {
			fmt.Println("slow:", in.Duration() > 800*tracescope.Millisecond)
		}
	}
	// Output:
	// slow: true
}
