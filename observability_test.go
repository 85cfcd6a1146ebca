package tracescope_test

import (
	"bytes"
	"strings"
	"testing"

	"tracescope"
)

// obsPipelineSnapshot runs the instrumented pipeline — impact plus one
// causality analysis, both off one fold of a directory-backed cached
// source — and
// returns the recorder's snapshot alongside the source's own counters.
// The cache is unbounded so no evictions occur (eviction order under
// concurrent workers is interleaving-dependent) and the recorder has no
// clock, so the snapshot is fully deterministic.
func obsPipelineSnapshot(t *testing.T, dir string, workers int) (tracescope.MetricsSnapshot, tracescope.SourceCacheStats) {
	t.Helper()
	src, err := tracescope.OpenCorpusDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	cached := tracescope.NewCachedSource(src, 0)
	rec := tracescope.NewMemRecorder()
	an := tracescope.NewAnalyzer(cached,
		tracescope.WithWorkers(workers), tracescope.WithRecorder(rec))
	if m := an.Impact(tracescope.AllDrivers(), ""); m.IAwait() <= 0 {
		t.Fatal("degenerate impact")
	}
	tf, ts, _ := tracescope.Thresholds(tracescope.BrowserTabCreate)
	if _, err := an.Causality(tracescope.CausalityConfig{
		Scenario: tracescope.BrowserTabCreate, Tfast: tf, Tslow: ts,
	}); err != nil {
		t.Fatal(err)
	}
	if err := an.Err(); err != nil {
		t.Fatal(err)
	}
	return rec.Snapshot(), cached.Stats()
}

// TestPipelineSnapshotDeterministic: two identical instrumented runs
// produce byte-identical JSON and Prometheus exports, at both the
// sequential and a parallel worker count.
func TestPipelineSnapshotDeterministic(t *testing.T) {
	dir := t.TempDir()
	corpus := tracescope.Generate(tracescope.GenerateConfig{Seed: 11, Streams: 10, Episodes: 5})
	if err := tracescope.WriteCorpusDir(corpus, dir); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		render := func() (string, string) {
			snap, _ := obsPipelineSnapshot(t, dir, workers)
			var j, p bytes.Buffer
			if err := snap.WriteJSON(&j); err != nil {
				t.Fatal(err)
			}
			if err := snap.WritePrometheus(&p); err != nil {
				t.Fatal(err)
			}
			return j.String(), p.String()
		}
		j1, p1 := render()
		j2, p2 := render()
		if j1 != j2 {
			t.Errorf("workers=%d: JSON snapshots differ:\n%s\n--- vs ---\n%s", workers, j1, j2)
		}
		if p1 != p2 {
			t.Errorf("workers=%d: Prometheus snapshots differ", workers)
		}
		if !strings.Contains(p1, "tracescope_engine_shards_total") {
			t.Errorf("workers=%d: Prometheus export misses engine counters:\n%s", workers, p1)
		}
	}
}

// TestPipelineSnapshotReconciles: the counters of one instrumented run
// agree with each other and with the source's own statistics — every
// decoded stream is a cache miss, a decode span and a stream folded,
// every engine shard is a shard span, the two calls shared one fold,
// and every causality phase ran exactly once.
func TestPipelineSnapshotReconciles(t *testing.T) {
	dir := t.TempDir()
	corpus := tracescope.Generate(tracescope.GenerateConfig{Seed: 12, Streams: 8, Episodes: 5})
	if err := tracescope.WriteCorpusDir(corpus, dir); err != nil {
		t.Fatal(err)
	}
	snap, stats := obsPipelineSnapshot(t, dir, 4)

	decoded := snap.Counter("trace_streams_decoded_total")
	if decoded == 0 {
		t.Fatal("no streams decoded")
	}
	if misses := snap.Counter("source_cache_misses_total"); misses != decoded {
		t.Errorf("cache misses %d != streams decoded %d", misses, decoded)
	}
	if stats.Misses != decoded {
		t.Errorf("source stats misses %d != recorded decodes %d", stats.Misses, decoded)
	}
	if hits := snap.Counter("source_cache_hits_total"); hits != stats.Hits {
		t.Errorf("recorded hits %d != source stats hits %d", hits, stats.Hits)
	}
	if h, ok := snap.Span("trace_decode"); !ok || h.Count != decoded {
		t.Errorf("trace_decode spans != %d decodes", decoded)
	}

	shards := snap.Counter("engine_shards_total")
	var shardSpans int64
	for _, h := range snap.Spans {
		if strings.HasSuffix(h.Name, "_shard") {
			shardSpans += h.Count
		}
	}
	if shards == 0 || shardSpans != shards {
		t.Errorf("shard spans %d != engine_shards_total %d", shardSpans, shards)
	}

	for _, phase := range []string{
		"analysis_fold", "causality_enumerate", "causality_select",
		"causality_lift", "causality_rank", "causality_analysis", "impact_analysis",
	} {
		if h, ok := snap.Span(phase); !ok || h.Count != 1 {
			t.Errorf("phase %s recorded %v times, want exactly 1", phase, h.Count)
		}
	}
	if folded := snap.Counter("core_streams_ingested_total"); folded != decoded {
		t.Errorf("streams folded %d != streams decoded %d", folded, decoded)
	}
}

// TestNineCallPassDecodesEachStreamOnce: a traceanalyze-style pass —
// Impact plus one Causality per selected scenario — through a stream
// cache smaller than the corpus is one fold: every stream is decoded
// exactly once, every instance's Wait Graph is built exactly once, and
// the sweep goes past the cache — each fetch a counted miss, decoded
// into the worker's buffers, nothing inserted and so nothing evicted.
func TestNineCallPassDecodesEachStreamOnce(t *testing.T) {
	dir := t.TempDir()
	corpus := tracescope.Generate(tracescope.GenerateConfig{Seed: 12, Streams: 8, Episodes: 5})
	if err := tracescope.WriteCorpusDir(corpus, dir); err != nil {
		t.Fatal(err)
	}
	src, err := tracescope.OpenCorpusDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	const limit = 3
	cached := tracescope.NewCachedSource(src, limit)
	rec := tracescope.NewMemRecorder()
	an := tracescope.NewAnalyzer(cached, tracescope.WithWorkers(2), tracescope.WithRecorder(rec))

	an.Impact(tracescope.AllDrivers(), "")
	calls := int64(1)
	for _, name := range tracescope.SelectedScenarios() {
		if len(src.InstancesOf(name)) == 0 {
			continue // a small corpus may lack one
		}
		tf, ts, _ := tracescope.Thresholds(name)
		if _, err := an.Causality(tracescope.CausalityConfig{Scenario: name, Tfast: tf, Tslow: ts}); err != nil {
			t.Fatal(err)
		}
		calls++
	}
	if err := an.Err(); err != nil {
		t.Fatal(err)
	}

	snap, streams := rec.Snapshot(), int64(src.NumStreams())
	if decoded := snap.Counter("trace_streams_decoded_total"); decoded != streams {
		t.Errorf("%d calls decoded %d streams, want each of %d once", calls, decoded, streams)
	}
	if h, _ := snap.Span("analysis_fold"); h.Count != 1 {
		t.Errorf("%d calls ran %d folds, want 1", calls, h.Count)
	}
	if h, _ := snap.Span("causality_analysis"); h.Count != calls-1 {
		t.Errorf("causality_analysis recorded %d times, want %d", h.Count, calls-1)
	}
	if built := an.GraphCacheStats().Misses; built != int64(src.NumInstances()) {
		t.Errorf("%d calls built %d Wait Graphs, want each of %d once", calls, built, src.NumInstances())
	}
	if st := cached.Stats(); st.Hits != 0 || st.Misses != streams || st.Evictions != 0 || st.Size != 0 {
		t.Errorf("stream cache %+v, want 0 hits, %d misses, and nothing inserted or evicted", st, streams)
	}
}
