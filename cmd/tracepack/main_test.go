package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"tracescope/internal/core"
	"tracescope/internal/scenario"
	"tracescope/internal/trace"
)

// fingerprint renders a source's full analysis output — headline impact
// plus one causality pass (ranked patterns and the slow-class AWG) — to
// bytes, so two corpora can be compared for byte-identical results.
func fingerprint(t *testing.T, src trace.Source) []byte {
	t.Helper()
	var buf bytes.Buffer
	an := core.NewAnalyzer(src, core.WithWorkers(2))
	fmt.Fprintf(&buf, "impact: %v\n", an.Impact(trace.AllDrivers(), ""))
	tf, ts, ok := scenario.Thresholds(scenario.BrowserTabCreate)
	if !ok {
		t.Fatal("no thresholds")
	}
	res, err := an.Causality(core.CausalityConfig{
		Scenario: scenario.BrowserTabCreate, Tfast: tf, Tslow: ts,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Patterns {
		fmt.Fprintf(&buf, "pattern: %v %v\n", p.AvgC(), p.Tuple)
	}
	if err := res.SlowAWG.WriteText(&buf, 64); err != nil {
		t.Fatal(err)
	}
	if err := an.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestPackRoundTrip(t *testing.T) {
	corpus := scenario.Generate(scenario.Config{Seed: 7, Streams: 8, Episodes: 5})
	want := fingerprint(t, corpus)

	for _, compress := range []bool{false, true} {
		t.Run(fmt.Sprintf("compress=%v", compress), func(t *testing.T) {
			in := t.TempDir()
			if err := corpus.WriteDir(in); err != nil {
				t.Fatal(err)
			}
			out := filepath.Join(t.TempDir(), "packed")
			if err := pack(in, out, compress); err != nil {
				t.Fatal(err)
			}

			st, err := trace.CollectDirStats(out)
			if err != nil {
				t.Fatal(err)
			}
			if compressed := st.CompressedBlocks > 0; compressed != compress {
				t.Errorf("compress=%v packed %d compressed blocks", compress, st.CompressedBlocks)
			}

			src, err := trace.OpenDir(out)
			if err != nil {
				t.Fatal(err)
			}
			if got := fingerprint(t, src); !bytes.Equal(got, want) {
				t.Error("analysis output differs after packing")
			}

			// And the source corpus still analyses identically too —
			// packing must not have touched it.
			insrc, err := trace.OpenDir(in)
			if err != nil {
				t.Fatal(err)
			}
			if got := fingerprint(t, insrc); !bytes.Equal(got, want) {
				t.Error("source corpus analysis changed")
			}
		})
	}
}

func TestPackRefusesExistingCorpus(t *testing.T) {
	corpus := scenario.Generate(scenario.Config{Seed: 1, Streams: 2, Episodes: 2})
	in := t.TempDir()
	if err := corpus.WriteDir(in); err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	if err := corpus.WriteDir(out); err != nil {
		t.Fatal(err)
	}
	if err := pack(in, out, false); err == nil {
		t.Fatal("pack onto an existing corpus succeeded")
	}
}
