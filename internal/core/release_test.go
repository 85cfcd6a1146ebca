package core

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
	"time"

	"tracescope/internal/awg"
	"tracescope/internal/impact"
	"tracescope/internal/mining"
	"tracescope/internal/scenario"
	"tracescope/internal/trace"
	"tracescope/internal/trace/tracetest"
	"tracescope/internal/waitgraph"
)

// decodedStream returns a freshly wire-decoded stream and a channel
// closed when the garbage collector has reclaimed it.
func decodedStream(t *testing.T, index int) (*trace.Stream, <-chan struct{}) {
	t.Helper()
	var wire bytes.Buffer
	cfg := scenario.Config{Seed: 11, Streams: 4, Episodes: 6}
	if err := scenario.GenerateStream(cfg, index).WriteBinary(&wire); err != nil {
		t.Fatal(err)
	}
	s, err := trace.ReadBinary(&wire)
	if err != nil {
		t.Fatal(err)
	}
	freed := make(chan struct{})
	runtime.SetFinalizer(s, func(*trace.Stream) { close(freed) })
	return s, freed
}

// awaitCollection runs the collector until the stream's finalizer has
// fired, failing the test if something still references the stream.
func awaitCollection(t *testing.T, what string, freed <-chan struct{}) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatalf("%s: the decoded stream was never collected — something in the analysis state still references it", what)
}

// TestIngestReleasesStream: analysis state keeps aggregates, never
// streams. Once a stream's fold ends and the caller drops it, the
// stream must be collectable while the Incremental and a Snapshot of it
// (and, for the batch path, a finished shard's partial and forest)
// are still alive and answering queries — and stay so for a daemon's
// Incremental, whose builder, resolver and mark sets are the ones it
// folded the previous upload with.
func TestIngestReleasesStream(t *testing.T) {
	t.Run("daemon", func(t *testing.T) {
		corpus := equivalenceCorpus(t)
		dir := t.TempDir()
		if err := corpus.WriteDir(dir); err != nil {
			t.Fatal(err)
		}
		dirSrc, err := trace.OpenDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		// Every fetch first waits for the streams handed out before it to be
		// reclaimed, so MaxLive 1 says each upload was collectable the
		// moment its Ingest returned — while the state that folded it went
		// on to fold the next.
		src := &tracetest.LiveSource{Source: dirSrc}
		inc := NewIncremental(IncrementalConfig{Thresholds: scenario.Thresholds})
		for i := 0; i < src.NumStreams(); i++ {
			s, err := src.Stream(i)
			if err != nil {
				t.Fatal(err)
			}
			inc.Ingest(i, s)
		}
		if live := src.Settle(); live != 0 || src.MaxLive != 1 {
			t.Errorf("one long-lived Incremental, %d uploads: %d streams still referenced at the end, at most %d alive at once; want 0 and 1",
				src.NumStreams(), live, src.MaxLive)
		}
		batch := NewAnalyzer(corpus, WithWorkers(1), WithThresholds(scenario.Thresholds))
		if got, want := inc.Impact(""), batch.Impact(trace.AllDrivers(), ""); got != want {
			t.Errorf("impact after %d one-by-one ingests: %v, want the batch fold's %v", src.NumStreams(), got, want)
		}
		runtime.KeepAlive(inc)
	})

	t.Run("incremental", func(t *testing.T) {
		inc := NewIncremental(IncrementalConfig{Thresholds: scenario.Thresholds})
		s, freed := decodedStream(t, 0)
		inc.Ingest(0, s)
		snap := inc.Snapshot()
		s = nil
		awaitCollection(t, "Incremental.Ingest", freed)

		for _, state := range []*Incremental{inc, snap} {
			if m := state.Impact(""); m.Instances == 0 || m.Dscn == 0 {
				t.Fatalf("state lost its aggregates: %+v", m)
			}
			for _, sc := range state.Scenarios() {
				if _, _, ok := scenario.Thresholds(sc.Name); ok {
					if _, err := state.Causality(sc.Name, mining.Params{}); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		next, _ := decodedStream(t, 1)
		inc.Ingest(1, next) // the state is still good for more
		if inc.NumStreams() != 2 {
			t.Fatalf("NumStreams = %d, want 2", inc.NumStreams())
		}
	})

	t.Run("batch shard", func(t *testing.T) {
		s, freed := decodedStream(t, 0)
		fc := trace.NewFilterCache(trace.AllDrivers())
		ag := awg.NewAggregatorOn(fc, awg.Options{})
		p := impact.NewPartial()
		b := waitgraph.NewBuilder(s, 0, waitgraph.Options{})
		for _, in := range s.Instances {
			g := b.Instance(in)
			ag.Add(g)
			p.AddGraph(g, fc)
		}
		fc.Forget()
		forest := ag.Partial()
		s, b = nil, nil
		awaitCollection(t, "a finished shard", freed)

		if p.Instances == 0 || forest.NumNodes() == 0 {
			t.Fatalf("shard results empty: %d instances, %d AWG nodes", p.Instances, forest.NumNodes())
		}
		runtime.KeepAlive(ag)
		runtime.KeepAlive(fc)
	})
}

// TestExtensionsReleaseStreams: LocatePattern and ImpactByComponent
// decode, use and drop. Each call fetches every stream it needs exactly
// once, GraphCacheStats counts exactly the graphs it walked, and when it
// returns — with the Analyzer still alive — every stream it fetched is
// collectable: nothing memoises a builder or a graph behind the call.
func TestExtensionsReleaseStreams(t *testing.T) {
	corpus := equivalenceCorpus(t)
	dir := t.TempDir()
	if err := corpus.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	dirSrc, err := trace.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	src := &tracetest.LiveSource{Source: dirSrc}
	an := NewAnalyzer(src, WithWorkers(1), WithThresholds(scenario.Thresholds))
	name := scenario.BrowserTabCreate
	res := catalogueCausality(t, an, name)
	if len(res.Patterns) == 0 {
		t.Fatal("no pattern to locate")
	}

	// walked runs one extension call and checks its fetches, its graph
	// count and that it left no stream reachable.
	walked := func(what string, refs []trace.InstanceRef, call func()) {
		t.Helper()
		before := an.GraphCacheStats().Misses
		src.Fetches = nil
		call()
		want := make(map[int]int)
		for _, ref := range refs {
			want[ref.Stream] = 1
		}
		if got := src.Fetches; !reflect.DeepEqual(got, want) {
			t.Errorf("%s fetched streams (index: times) %v, want each once: %v", what, got, want)
		}
		if got := an.GraphCacheStats().Misses - before; got != int64(len(refs)) {
			t.Errorf("%s: GraphCacheStats().Misses rose by %d, want the %d graphs walked", what, got, len(refs))
		}
		if live := src.Settle(); live != 0 {
			t.Errorf("%s returned and %d decoded streams are still referenced", what, live)
		}
	}

	walked("ImpactByComponent", src.InstancesOf(""), func() {
		if len(an.ImpactByComponent(nil, nil)) == 0 {
			t.Error("ImpactByComponent: no components")
		}
	})
	var slow []trace.InstanceRef
	for _, ref := range src.InstancesOf(name) {
		if src.InstanceMeta(ref).Duration() > res.Tslow {
			slow = append(slow, ref)
		}
	}
	walked("LocatePattern", slow, func() {
		if len(an.LocatePattern(res, res.Patterns[0], nil, 4)) == 0 {
			t.Error("LocatePattern: the top pattern is in no slow instance")
		}
	})
	if an.GraphCacheStats().Hits != 0 {
		t.Error("GraphCacheStats().Hits is not 0: nothing caches a graph")
	}
	runtime.KeepAlive(an)
}
