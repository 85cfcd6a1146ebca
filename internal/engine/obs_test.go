package engine

import (
	"testing"

	"tracescope/internal/obs"
)

// TestFoldRecordsWorkerRuns: a Fold's "shard" is one worker's run — as
// many spans as engine_shards_total, min(workers, n) of each — progress
// ticks once per unit, and an unlabelled Options falls back to the
// "engine" label.
func TestFoldRecordsWorkerRuns(t *testing.T) {
	for _, tc := range []struct{ n, workers, shards int }{{13, 1, 1}, {13, 4, 4}, {3, 8, 3}} {
		rec := obs.NewMemRecorder()
		_, err := Fold(tc.n, Options{Workers: tc.workers, Recorder: rec},
			func(int) int { return 0 }, func(int, int) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		if got := rec.SpanCount("engine_shard"); got != int64(tc.shards) {
			t.Errorf("%+v: shard spans = %d", tc, got)
		}
		for _, name := range []string{"engine_shards_total", "engine_workers_total"} {
			if got := rec.CounterValue(name); got != int64(tc.shards) {
				t.Errorf("%+v: %s = %d", tc, name, got)
			}
		}
		if got := rec.CounterValue("engine_runs_total"); got != 1 {
			t.Errorf("%+v: engine_runs_total = %d, want 1", tc, got)
		}
		snap := rec.Snapshot()
		if len(snap.Progress) != 1 || snap.Progress[0].Phase != "engine" ||
			snap.Progress[0].Done != int64(tc.n) || snap.Progress[0].Total != int64(tc.n) ||
			snap.Progress[0].Events != int64(tc.n) {
			t.Errorf("%+v: progress = %+v", tc, snap.Progress)
		}
	}
}
