package core

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"tracescope/internal/impact"
	"tracescope/internal/scenario"
	"tracescope/internal/trace"
)

// TestOutOfCoreEquivalence is the out-of-core acceptance test: impact
// and causality over a directory-backed cached source must be
// bit-for-bit identical to the in-memory corpus at every combination of
// decoded-stream cache limit (1, 2, unbounded) and worker count (1, 4,
// 8). The folds sweep — each worker decodes a stream into its own
// buffers, folds it and overwrites it — so at every limit they leave the
// cache as they found it: every fetch a counted miss, nothing inserted,
// nothing evicted, while a stream a Stream caller put there is served
// from it. CI runs this under -race, which also exercises the cache's
// concurrent lookups.
func TestOutOfCoreEquivalence(t *testing.T) {
	corpus := equivalenceCorpus(t)
	dir := t.TempDir()
	if err := corpus.WriteDir(dir); err != nil {
		t.Fatal(err)
	}

	scopes := append([]string{""}, scenario.Selected()...)
	// In-memory reference, sequential.
	ref := NewAnalyzer(corpus, WithWorkers(1))
	wantImpact := make(map[string]interface{})
	for _, scope := range scopes {
		wantImpact[scope] = ref.Impact(trace.AllDrivers(), scope)
	}
	causalityScenario := scenario.BrowserTabCreate
	wantCaus := catalogueCausality(t, ref, causalityScenario)

	for _, workers := range []int{1, 4, 8} {
		for _, limit := range []int{1, 2, 0} {
			src, err := trace.OpenDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			cached := trace.NewCachedSource(src, limit)
			if _, err := cached.Stream(0); err != nil { // a Stream caller's, for the sweeps to hit
				t.Fatal(err)
			}
			an := NewAnalyzer(cached, WithWorkers(workers))

			for _, scope := range scopes {
				if got := an.Impact(trace.AllDrivers(), scope); got != wantImpact[scope] {
					t.Errorf("limit=%d workers=%d scope=%q:\n  got  %v\n  want %v",
						limit, workers, scope, got, wantImpact[scope])
				}
			}

			sameResult(t, fmt.Sprintf("limit=%d workers=%d", limit, workers),
				catalogueCausality(t, an, causalityScenario), wantCaus)

			if err := an.Err(); err != nil {
				t.Errorf("limit=%d workers=%d: deferred fetch error: %v", limit, workers, err)
			}
			stats := cached.Stats()
			if stats.Size != 1 || stats.HighWater != 1 || stats.Evictions != 0 {
				t.Errorf("limit=%d workers=%d: the folds changed what the cache holds (stats %+v), want only the stream put there before them",
					limit, workers, stats)
			}
			if stats.Hits == 0 || stats.Misses <= int64(corpus.NumStreams()) {
				t.Errorf("limit=%d workers=%d: stats %+v, want stream 0 served from the cache and every other fetch a counted miss",
					limit, workers, stats)
			}
		}
	}
}

// TestOutOfCoreFetchErrorLatches loses a stream file after the index is
// loaded. A fold that cannot fetch one of its streams is not kept:
// Impact answers zero metrics (never numbers over the rest of the
// corpus), Causality returns the error, Err reports it — and once the
// file is back the same Analyzer folds again and answers as a fresh one
// does. The extensions hold to the same contract: nil and Err while the
// file is lost, a fresh Analyzer's answer once it is back.
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
	lost := filepath.Join(dir, src.StreamMeta(0).File)
	if err := os.Rename(lost, lost+".lost"); err != nil {
		t.Fatal(err)
	}
	name := scenario.BrowserTabCreate
	tf, ts, _ := scenario.Thresholds(name)
	cfg := CausalityConfig{Scenario: name, Tfast: tf, Tslow: ts}

	an := NewAnalyzer(trace.NewCachedSource(src, 2), WithWorkers(2), WithThresholds(scenario.Thresholds))
	if m := an.Impact(trace.AllDrivers(), ""); m != (impact.Metrics{}) {
		t.Errorf("impact over a corpus with a lost stream: got %v, want zero metrics", m)
	}
	if an.Err() == nil {
		t.Fatal("missing stream file not surfaced through Err")
	}
	if res, err := an.Causality(cfg); err == nil || res != nil {
		t.Errorf("causality over a corpus with a lost stream: got %v, %v; want the fetch error", res, err)
	}
	// The extensions walk on their own, so they are asked through an
	// Analyzer no failed fold has marked. LocatePattern takes a result
	// mined from the whole corpus; stream 0 holds slow instances.
	fresh := NewAnalyzer(corpus, WithWorkers(1), WithThresholds(scenario.Thresholds))
	res, err := fresh.Causality(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ext := NewAnalyzer(trace.NewCachedSource(src, 2))
	if got := ext.ImpactByComponent(nil, nil); got != nil || ext.Err() == nil {
		t.Errorf("per-component impact over a corpus with a lost stream: got %v, Err %v; want nil and the fetch error", got, ext.Err())
	}
	ext = NewAnalyzer(trace.NewCachedSource(src, 2))
	if got := ext.LocatePattern(res, res.Patterns[0], nil, 0); got != nil || ext.Err() == nil {
		t.Errorf("locating a pattern over a corpus with a lost stream: got %v, Err %v; want nil and the fetch error", got, ext.Err())
	}

	if err := os.Rename(lost+".lost", lost); err != nil {
		t.Fatal(err)
	}
	if got, want := an.Impact(trace.AllDrivers(), ""), fresh.Impact(trace.AllDrivers(), ""); got != want {
		t.Errorf("impact after the file is back:\n  got  %v\n  want %v", got, want)
	}
	if err := an.Err(); err != nil {
		t.Errorf("Err after a fold that succeeded: %v", err)
	}
	got, err := an.Causality(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Causality(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, name, got, want)

	// The lost walk's error stays in ext.Err — a caller that checks once
	// at the end must still see it — but the answers are whole again.
	if got, want := ext.ImpactByComponent(nil, nil), fresh.ImpactByComponent(nil, nil); !reflect.DeepEqual(got, want) {
		t.Errorf("per-component impact after the file is back:\n  got  %v\n  want %v", got, want)
	}
	if got, want := ext.LocatePattern(res, res.Patterns[0], nil, 0), fresh.LocatePattern(res, res.Patterns[0], nil, 0); len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("located occurrences after the file is back:\n  got  %v\n  want %v", got, want)
	}
}
