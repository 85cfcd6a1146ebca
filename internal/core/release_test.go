package core

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"tracescope/internal/awg"
	"tracescope/internal/impact"
	"tracescope/internal/mining"
	"tracescope/internal/scenario"
	"tracescope/internal/trace"
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
// are still alive and answering queries.
func TestIngestReleasesStream(t *testing.T) {
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
