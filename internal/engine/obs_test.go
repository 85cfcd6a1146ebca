package engine

import (
	"testing"

	"tracescope/internal/obs"
)

// TestMapRecordsShardSpans: every unit of a Map run is wrapped in a
// labelled shard span, and the run/shard/worker counters reconcile with
// the call — the invariant the CI bench-smoke step checks end to end.
func TestMapRecordsShardSpans(t *testing.T) {
	for _, workers := range []int{1, 4} {
		rec := obs.NewMemRecorder()
		opts := Options{Workers: workers, Recorder: rec, Label: "test"}
		n := 13
		out := Map(n, opts, func(i int) int { return i * i })
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
		if got := rec.SpanCount("test_shard"); got != int64(n) {
			t.Errorf("workers=%d: shard spans = %d, want %d", workers, got, n)
		}
		if got := rec.CounterValue("engine_shards_total"); got != int64(n) {
			t.Errorf("workers=%d: engine_shards_total = %d, want %d", workers, got, n)
		}
		if got := rec.CounterValue("engine_runs_total"); got != 1 {
			t.Errorf("workers=%d: engine_runs_total = %d, want 1", workers, got)
		}
		snap := rec.Snapshot()
		if len(snap.Progress) != 1 || snap.Progress[0].Phase != "test" ||
			snap.Progress[0].Done != int64(n) || snap.Progress[0].Total != int64(n) {
			t.Errorf("workers=%d: progress = %+v", workers, snap.Progress)
		}
	}
}

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

// TestMapNilRecorder: an unset recorder must not panic or change
// results.
func TestMapNilRecorder(t *testing.T) {
	out := Map(4, Options{Workers: 2}, func(i int) int { return i })
	for i, v := range out {
		if v != i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}
