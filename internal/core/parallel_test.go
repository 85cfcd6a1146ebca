package core

import (
	"bytes"
	"fmt"
	"testing"

	"tracescope/internal/awg"
	"tracescope/internal/scenario"
	"tracescope/internal/trace"
)

// equivalenceCorpus is shared by the parallel-vs-sequential tests.
func equivalenceCorpus(t *testing.T) *trace.Corpus {
	t.Helper()
	return scenario.Generate(scenario.Config{Seed: 5, Streams: 12, Episodes: 6})
}

func renderAWG(t *testing.T, g *awg.Graph) string {
	t.Helper()
	if g == nil {
		return "<nil>"
	}
	var buf bytes.Buffer
	if err := g.WriteText(&buf, 64); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestParallelImpactEquivalence: impact metrics at workers ∈ {2, 4, 8}
// are bit-for-bit identical to the sequential Workers: 1 run, for the
// whole corpus and per scenario.
func TestParallelImpactEquivalence(t *testing.T) {
	corpus := equivalenceCorpus(t)
	seq := NewAnalyzer(corpus, WithWorkers(1))
	scopes := append([]string{""}, scenario.Selected()...)
	for _, workers := range []int{2, 4, 8} {
		par := NewAnalyzer(corpus, WithWorkers(workers))
		for _, scope := range scopes {
			want := seq.Impact(trace.AllDrivers(), scope)
			got := par.Impact(trace.AllDrivers(), scope)
			if got != want {
				t.Errorf("workers=%d scope=%q:\n  got  %v\n  want %v", workers, scope, got, want)
			}
		}
	}
}

// TestParallelCausalityEquivalence: the full causality result — class
// sizes, ranked pattern list, coverages, reduction accounting, impact
// metrics, and the slow-class AWG — is identical at every worker count.
func TestParallelCausalityEquivalence(t *testing.T) {
	corpus := equivalenceCorpus(t)
	for _, name := range []string{scenario.BrowserTabCreate, scenario.WebPageNavigation} {
		want := catalogueCausality(t, NewAnalyzer(corpus, WithWorkers(1)), name)
		for _, workers := range []int{2, 4, 8} {
			got := catalogueCausality(t, NewAnalyzer(corpus, WithWorkers(workers)), name)
			sameResult(t, fmt.Sprintf("%s workers=%d", name, workers), got, want)
		}
	}
}

// TestDefaultAnalyzerUsesEngine: the default Workers: 0 (GOMAXPROCS)
// configuration equals the explicit sequential run — the engine is on by
// default and must make no observable difference.
func TestDefaultAnalyzerUsesEngine(t *testing.T) {
	corpus := equivalenceCorpus(t)
	def := NewAnalyzer(corpus)
	seq := NewAnalyzer(corpus, WithWorkers(1))
	if got, want := def.Impact(trace.AllDrivers(), ""), seq.Impact(trace.AllDrivers(), ""); got != want {
		t.Fatalf("default analyzer differs from sequential:\n  got  %v\n  want %v", got, want)
	}
}

// TestCausalityGraphCacheReuse: the reuse the Wait-Graph cache used to
// provide is now the held fold's. A causality run builds each of its
// scenario's graphs once, and a following impact analysis over the same
// scenario builds none — it reads the partial the same fold filled.
func TestCausalityGraphCacheReuse(t *testing.T) {
	corpus := equivalenceCorpus(t)
	an := NewAnalyzer(corpus, WithWorkers(2))
	name := scenario.BrowserTabCreate
	tf, ts, _ := scenario.Thresholds(name)
	res, err := an.Causality(CausalityConfig{Scenario: name, Tfast: tf, Tslow: ts})
	if err != nil {
		t.Fatal(err)
	}
	before := an.GraphCacheStats()
	if before.Misses != int64(res.Instances) {
		t.Errorf("causality built %d graphs for %d instances, want one each", before.Misses, res.Instances)
	}
	m := an.Impact(trace.AllDrivers(), name)
	if got := an.GraphCacheStats().Misses - before.Misses; got != 0 {
		t.Errorf("impact after causality built %d graphs, want 0", got)
	}
	if want := NewAnalyzer(corpus, WithWorkers(1)).Impact(trace.AllDrivers(), name); m != want {
		t.Errorf("impact read off the causality fold:\n  got  %v\n  want %v", m, want)
	}
}
