package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"tracescope/internal/impact"
	"tracescope/internal/mining"
	"tracescope/internal/scenario"
	"tracescope/internal/trace"
)

// batchBaseline runs the one-shot batch analysis over the corpus and
// captures everything the incremental path must reproduce byte for
// byte: global and per-scenario impact metrics and causality results.
type batchBaseline struct {
	global  impact.Metrics
	impacts map[string]impact.Metrics
	results map[string]*CausalityResult
}

func batchRun(t *testing.T, corpus *trace.Corpus, filter *trace.ComponentFilter) *batchBaseline {
	t.Helper()
	a := NewAnalyzer(corpus, WithThresholds(scenario.Thresholds))
	b := &batchBaseline{
		global:  a.Impact(filter, ""),
		impacts: make(map[string]impact.Metrics),
		results: make(map[string]*CausalityResult),
	}
	for _, sc := range corpus.Scenarios() {
		b.impacts[sc.Name] = a.Impact(filter, sc.Name)
		tf, ts, ok := scenario.Thresholds(sc.Name)
		if !ok {
			continue
		}
		res, err := a.Causality(CausalityConfig{Scenario: sc.Name, Tfast: tf, Tslow: ts, Filter: filter})
		if err != nil {
			t.Fatal(err)
		}
		b.results[sc.Name] = res
	}
	return b
}

// compareToBatch checks one incremental state against the batch
// baseline: impact metrics must be equal, causality results DeepEqual
// (the AWG compared by rendered bytes, everything else by value).
func compareToBatch(t *testing.T, label string, inc *Incremental, want *batchBaseline) {
	t.Helper()
	if got := inc.Impact(""); got != want.global {
		t.Errorf("%s: global impact:\n got %+v\nwant %+v", label, got, want.global)
	}
	for name, wm := range want.impacts {
		if got := inc.Impact(name); got != wm {
			t.Errorf("%s: impact(%s):\n got %+v\nwant %+v", label, name, got, wm)
		}
	}
	for name, wres := range want.results {
		res, err := inc.Causality(name, mining.Params{})
		if err != nil {
			t.Fatalf("%s: causality(%s): %v", label, name, err)
		}
		sameResult(t, fmt.Sprintf("%s: causality(%s)", label, name), res, wres)
	}
}

// TestIncrementalMatchesBatch is the determinism contract of the
// continuous-ingestion refactor: ingesting the corpus stream by stream,
// in several different arrival orders, must produce results bit-for-bit
// identical to the one-shot batch run over the same streams — scenario
// metrics, contrast patterns, and AWG renders alike.
func TestIncrementalMatchesBatch(t *testing.T) {
	corpus := equivalenceCorpus(t)
	filter := trace.AllDrivers()
	want := batchRun(t, corpus, filter)

	n := len(corpus.Streams)
	identity := make([]int, n)
	reversed := make([]int, n)
	for i := range identity {
		identity[i] = i
		reversed[i] = n - 1 - i
	}
	orders := map[string][]int{
		"identity":  identity,
		"reversed":  reversed,
		"shuffled7": rand.New(rand.NewSource(7)).Perm(n),
		"shuffled9": rand.New(rand.NewSource(9)).Perm(n),
	}

	for label, order := range orders {
		t.Run(label, func(t *testing.T) {
			inc := NewIncremental(IncrementalConfig{Filter: filter, Thresholds: scenario.Thresholds})
			for _, si := range order {
				inc.Ingest(si, corpus.Streams[si])
			}
			if inc.NumStreams() != n || inc.NumEvents() != corpus.NumEvents() ||
				inc.NumInstances() != corpus.NumInstances() || inc.TotalDuration() != corpus.TotalDuration() {
				t.Fatalf("corpus totals differ after ingestion: streams=%d events=%d instances=%d dur=%v",
					inc.NumStreams(), inc.NumEvents(), inc.NumInstances(), inc.TotalDuration())
			}
			compareToBatch(t, label, inc, want)
			// Queries must not disturb the state: ask again.
			compareToBatch(t, label+"/requery", inc, want)
		})
	}
}

// TestIncrementalScenarioListing checks the sorted scenario listing
// matches the corpus's.
func TestIncrementalScenarioListing(t *testing.T) {
	corpus := equivalenceCorpus(t)
	inc := NewIncremental(IncrementalConfig{Thresholds: scenario.Thresholds})
	for si, s := range corpus.Streams {
		inc.Ingest(si, s)
	}
	if got, want := inc.Scenarios(), corpus.Scenarios(); !reflect.DeepEqual(got, want) {
		t.Fatalf("scenario listing:\n got %+v\nwant %+v", got, want)
	}
}

// TestIngestSourceMatchesBatch checks the parallel warm-up path: a
// daemon starting over an existing on-disk corpus must reach the same
// state as sequential ingestion — at any worker count (over these 12
// streams: one range; 8 uneven ranges of one or two streams; 16 and 32
// target shards, so fewer streams than shards and one stream each), and
// when the warm-up resumes a partially fed state.
func TestIngestSourceMatchesBatch(t *testing.T) {
	corpus := equivalenceCorpus(t)
	filter := trace.AllDrivers()
	want := batchRun(t, corpus, filter)

	dir := t.TempDir()
	if err := corpus.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	src, err := trace.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 4, 8} {
		inc := NewIncremental(IncrementalConfig{Filter: filter, Thresholds: scenario.Thresholds, Workers: workers})
		if err := inc.IngestSource(src); err != nil {
			t.Fatal(err)
		}
		if inc.NumStreams() != src.NumStreams() || inc.NumEvents() != src.NumEvents() {
			t.Fatalf("workers %d: warm-up folded %d streams, %d events; corpus has %d, %d",
				workers, inc.NumStreams(), inc.NumEvents(), src.NumStreams(), src.NumEvents())
		}
		compareToBatch(t, fmt.Sprintf("warmup/workers%d", workers), inc, want)
	}

	// Resume: feed the first three streams by hand, warm up the rest.
	inc := NewIncremental(IncrementalConfig{Filter: filter, Thresholds: scenario.Thresholds, Workers: 3})
	for si := 0; si < 3; si++ {
		inc.Ingest(si, corpus.Streams[si])
	}
	if err := inc.IngestSource(src); err != nil {
		t.Fatal(err)
	}
	compareToBatch(t, "resume", inc, want)
}
