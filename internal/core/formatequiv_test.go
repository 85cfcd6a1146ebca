package core

import (
	"fmt"
	"reflect"
	"testing"

	"tracescope/internal/scenario"
	"tracescope/internal/trace"
)

// writeDirCompressed writes c to a fresh dir through an Appender with
// block compression on.
func writeDirCompressed(c *trace.Corpus, dir string) error {
	app, err := trace.OpenAppender(dir)
	if err != nil {
		return err
	}
	app.SetCompression(true)
	for _, s := range c.Streams {
		if _, err := app.Append(s); err != nil {
			return err
		}
	}
	return nil
}

// TestFormatEquivalence is the corpus-format acceptance test: the full
// pipeline (impact + causality) over the same corpus stored on disk,
// with and without block compression, must be bit-for-bit identical to
// the in-memory reference at every combination of worker count and
// cache limit. At limit=1 every fetch evicts, so under -race
// with workers > 1 this also exercises eviction hooks firing while other
// workers still hold graphs of the evicted stream.
func TestFormatEquivalence(t *testing.T) {
	corpus := equivalenceCorpus(t)
	formats := []struct {
		name  string
		write func(*trace.Corpus, string) error
	}{
		{"v4", (*trace.Corpus).WriteDir},
		{"v4-compressed", writeDirCompressed},
	}
	dirs := make(map[string]string, len(formats))
	for _, f := range formats {
		dir := t.TempDir()
		if err := f.write(corpus, dir); err != nil {
			t.Fatal(err)
		}
		dirs[f.name] = dir
	}

	// In-memory reference, sequential.
	ref := NewAnalyzer(corpus, WithWorkers(1))
	wantImpact := ref.Impact(trace.AllDrivers(), "")
	causalityScenario := scenario.BrowserTabCreate
	tf, ts, ok := scenario.Thresholds(causalityScenario)
	if !ok {
		t.Fatalf("no thresholds for %q", causalityScenario)
	}
	cfg := CausalityConfig{Scenario: causalityScenario, Tfast: tf, Tslow: ts}
	wantCaus, err := ref.Causality(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantAWG := renderAWG(t, wantCaus.SlowAWG)

	for _, f := range formats {
		for _, workers := range []int{1, 4, 8} {
			for _, limit := range []int{1, 0} {
				name := fmt.Sprintf("%s/workers=%d/limit=%d", f.name, workers, limit)
				t.Run(name, func(t *testing.T) {
					src, err := trace.OpenDir(dirs[f.name])
					if err != nil {
						t.Fatal(err)
					}
					an := NewAnalyzer(trace.NewCachedSource(src, limit), WithWorkers(workers))
					if got := an.Impact(trace.AllDrivers(), ""); got != wantImpact {
						t.Errorf("impact differs:\n  got  %v\n  want %v", got, wantImpact)
					}
					got, err := an.Causality(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got.Patterns, wantCaus.Patterns) {
						t.Errorf("ranked patterns differ (%d vs %d)", len(got.Patterns), len(wantCaus.Patterns))
					}
					if gotAWG := renderAWG(t, got.SlowAWG); gotAWG != wantAWG {
						t.Error("slow-class AWG differs")
					}
					if err := an.Err(); err != nil {
						t.Errorf("deferred fetch error: %v", err)
					}
				})
			}
		}
	}
}
