package tracescope_test

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"tracescope"
	"tracescope/internal/report"
	"tracescope/internal/scenario"
)

// TestEndToEndPipeline drives the complete workflow a performance analyst
// would run: generate traces, persist them, reload, measure impact, mine
// patterns, check their rank order, and drill into a concrete instance.
func TestEndToEndPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end pipeline in -short mode")
	}
	// 1. Generate and persist.
	corpus := tracescope.Generate(tracescope.GenerateConfig{Seed: 99, Streams: 16, Episodes: 10})
	dir := filepath.Join(t.TempDir(), "corpus")
	if err := tracescope.WriteCorpusDir(corpus, dir); err != nil {
		t.Fatal(err)
	}

	// 2. Reload; analyses on the reloaded corpus must match the original
	//    exactly (the codec is lossless and the analyses deterministic).
	reloaded, err := tracescope.ReadCorpusDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	m1 := tracescope.NewAnalyzer(corpus).Impact(tracescope.AllDrivers(), "")
	m2 := tracescope.NewAnalyzer(reloaded).Impact(tracescope.AllDrivers(), "")
	if m1 != m2 {
		t.Fatalf("impact differs after reload:\n  %v\n  %v", m1, m2)
	}

	// 3. Causality on the reloaded corpus.
	an := tracescope.NewAnalyzer(reloaded)
	tf, ts, _ := tracescope.Thresholds(tracescope.BrowserTabCreate)
	res, err := an.Causality(tracescope.CausalityConfig{
		Scenario: tracescope.BrowserTabCreate, Tfast: tf, Tslow: ts,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) == 0 {
		t.Fatal("no patterns")
	}

	// 4. Patterns come ranked by average cost.
	for i := 1; i < len(res.Patterns); i++ {
		if res.Patterns[i].AvgC() > res.Patterns[i-1].AvgC() {
			t.Fatal("pattern rank order broken")
		}
	}

	// 5. Drill into the top pattern: find a concrete slow instance and
	//    render its window (the analyst's final step).
	occ := an.LocatePattern(res, res.Patterns[0], nil, 4)
	if len(occ) == 0 {
		t.Fatal("top pattern not locatable")
	}
	stream, in := reloaded.Instance(occ[0].Ref)
	var buf bytes.Buffer
	if err := report.WriteThreadSnapshot(&buf, stream, in.Start, in.End, 4); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "thread snapshot") {
		t.Error("snapshot render failed")
	}
}

// TestInjectedProblemsAreDiscovered checks that each injected problem
// family surfaces in the right scenario's pattern list: storms inject
// known driver behaviours, and the mining must find their signatures.
func TestInjectedProblemsAreDiscovered(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus generation in -short mode")
	}
	corpus := tracescope.Generate(tracescope.GenerateConfig{Seed: 123, Streams: 24, Episodes: 12})
	an := tracescope.NewAnalyzer(corpus)

	checks := []struct {
		scenario  string
		signature string // must appear among the scenario's patterns
	}{
		{tracescope.AppAccessControl, "av.sys!ScanIntercept"},
		{tracescope.MenuDisplay, "net.sys!Transfer"},
		{tracescope.BrowserTabCreate, "fv.sys!QueryFileTable"},
		{tracescope.WebPageNavigation, "fs.sys!AcquireMDU"},
	}
	for _, c := range checks {
		tf, ts, _ := tracescope.Thresholds(c.scenario)
		res, err := an.Causality(tracescope.CausalityConfig{
			Scenario: c.scenario, Tfast: tf, Tslow: ts,
		})
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, p := range res.Patterns {
			for _, sig := range p.Tuple.Signatures() {
				if sig == c.signature {
					found = true
				}
			}
		}
		if !found {
			t.Errorf("%s: injected signature %s not discovered in %d patterns",
				c.scenario, c.signature, len(res.Patterns))
		}
	}
}

// TestPipelineDeterminism: same seed, same corpus, same patterns —
// end-to-end.
func TestPipelineDeterminism(t *testing.T) {
	run := func() ([]tracescope.Pattern, tracescope.ImpactMetrics) {
		corpus := tracescope.Generate(tracescope.GenerateConfig{Seed: 77, Streams: 6, Episodes: 8})
		an := tracescope.NewAnalyzer(corpus)
		m := an.Impact(tracescope.AllDrivers(), "")
		tf, ts, _ := tracescope.Thresholds(tracescope.WebPageNavigation)
		res, err := an.Causality(tracescope.CausalityConfig{
			Scenario: tracescope.WebPageNavigation, Tfast: tf, Tslow: ts,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Patterns, m
	}
	p1, m1 := run()
	p2, m2 := run()
	if m1 != m2 {
		t.Fatalf("impact differs across runs: %v vs %v", m1, m2)
	}
	if len(p1) != len(p2) {
		t.Fatalf("pattern counts differ: %d vs %d", len(p1), len(p2))
	}
	for i := range p1 {
		if p1[i].Tuple.Key() != p2[i].Tuple.Key() || p1[i].C != p2[i].C || p1[i].N != p2[i].N {
			t.Fatalf("pattern %d differs", i)
		}
	}
}

// TestScenarioCatalogueConsistency: the generator only emits instances of
// known scenarios, and every selected scenario appears in a default-size
// corpus.
func TestScenarioCatalogueConsistency(t *testing.T) {
	corpus := tracescope.Generate(tracescope.GenerateConfig{Seed: 5, Streams: 16, Episodes: 10})
	known := map[string]bool{}
	for _, n := range scenario.All() {
		known[n] = true
	}
	seen := map[string]bool{}
	for _, s := range corpus.Streams {
		for _, in := range s.Instances {
			if !known[in.Scenario] {
				t.Fatalf("unknown scenario %q emitted", in.Scenario)
			}
			seen[in.Scenario] = true
		}
	}
	for _, n := range tracescope.SelectedScenarios() {
		if !seen[n] {
			t.Errorf("selected scenario %s never generated", n)
		}
	}
}
