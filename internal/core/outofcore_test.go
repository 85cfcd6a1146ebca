package core

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"tracescope/internal/scenario"
	"tracescope/internal/trace"
)

func removeFile(dir, name string) error {
	return os.Remove(filepath.Join(dir, name))
}

// TestOutOfCoreEquivalence is the out-of-core acceptance test: impact
// and causality over a directory-backed cached source must be
// bit-for-bit identical to the in-memory corpus at every combination of
// decoded-stream cache limit (1, 2, unbounded) and worker count (1, 4),
// while the decoded-stream high-water mark stays within cache limit +
// workers. CI runs this under -race, which also exercises the cache's
// concurrent fetch path.
func TestOutOfCoreEquivalence(t *testing.T) {
	corpus := equivalenceCorpus(t)
	dir := t.TempDir()
	if err := corpus.WriteDir(dir); err != nil {
		t.Fatal(err)
	}

	scopes := append([]string{""}, scenario.Selected()...)
	causalityOf := func(an *Analyzer, name string) *CausalityResult {
		t.Helper()
		tf, ts, ok := scenario.Thresholds(name)
		if !ok {
			t.Fatalf("no thresholds for %q", name)
		}
		res, err := an.Causality(CausalityConfig{Scenario: name, Tfast: tf, Tslow: ts})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	// In-memory reference, sequential.
	ref := NewAnalyzer(corpus, WithWorkers(1))
	wantImpact := make(map[string]interface{})
	for _, scope := range scopes {
		wantImpact[scope] = ref.Impact(trace.AllDrivers(), scope)
	}
	causalityScenario := scenario.BrowserTabCreate
	wantCaus := causalityOf(ref, causalityScenario)
	wantAWG := renderAWG(t, wantCaus.SlowAWG)

	for _, workers := range []int{1, 4, 8} {
		for _, limit := range []int{1, 2, 0} {
			src, err := trace.OpenDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			cached := trace.NewCachedSource(src, limit)
			an := NewAnalyzer(cached, WithWorkers(workers))

			for _, scope := range scopes {
				if got := an.Impact(trace.AllDrivers(), scope); got != wantImpact[scope] {
					t.Errorf("limit=%d workers=%d scope=%q:\n  got  %v\n  want %v",
						limit, workers, scope, got, wantImpact[scope])
				}
			}

			got := causalityOf(an, causalityScenario)
			if !reflect.DeepEqual(got.Patterns, wantCaus.Patterns) {
				t.Errorf("limit=%d workers=%d: ranked patterns differ (%d vs %d)",
					limit, workers, len(got.Patterns), len(wantCaus.Patterns))
			}
			if gotAWG := renderAWG(t, got.SlowAWG); gotAWG != wantAWG {
				t.Errorf("limit=%d workers=%d: slow-class AWG differs", limit, workers)
			}
			g, w := *got, *wantCaus
			g.SlowAWG, w.SlowAWG = nil, nil
			g.Patterns, w.Patterns = nil, nil
			if !reflect.DeepEqual(g, w) {
				t.Errorf("limit=%d workers=%d: result fields differ:\n  got  %+v\n  want %+v",
					limit, workers, g, w)
			}

			if err := an.Err(); err != nil {
				t.Errorf("limit=%d workers=%d: deferred fetch error: %v", limit, workers, err)
			}
			stats := cached.Stats()
			bound := limit + workers
			if limit <= 0 {
				bound = corpus.NumStreams()
			}
			if stats.HighWater > bound {
				t.Errorf("limit=%d workers=%d: decoded-stream high-water %d exceeds %d (stats %+v)",
					limit, workers, stats.HighWater, bound, stats)
			}
			if limit > 0 && stats.Evictions == 0 {
				t.Errorf("limit=%d workers=%d: bounded run never evicted (stats %+v)", limit, workers, stats)
			}
		}
	}
}

// TestOutOfCoreFetchErrorLatches deletes a stream file after the index
// is loaded: analyses must complete (treating the lost instances as
// empty) and surface the failure through Err rather than panicking.
func TestOutOfCoreFetchErrorLatches(t *testing.T) {
	corpus := equivalenceCorpus(t)
	dir := t.TempDir()
	if err := corpus.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	src, err := trace.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	lost := src.StreamMeta(0).File
	if err := removeFile(dir, lost); err != nil {
		t.Fatal(err)
	}
	an := NewAnalyzer(trace.NewCachedSource(src, 2), WithWorkers(2))
	an.Impact(trace.AllDrivers(), "")
	if an.Err() == nil {
		t.Fatal("missing stream file not surfaced through Err")
	}
}
