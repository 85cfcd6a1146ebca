package ingest

import (
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strings"
	"testing"

	"tracescope/internal/scenario"
	"tracescope/internal/trace"
)

// violation mirrors the rejection body's violations entries.
type violation struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
	Severity string `json:"severity"`
}

type rejection struct {
	Error      string      `json:"error"`
	Violations []violation `json:"violations"`
}

// corruptStream returns a stream that decodes fine but violates the
// structural rules: its wait has no unwait at its end (and one event is
// out of time order).
func corruptStream(t *testing.T) *trace.Stream {
	t.Helper()
	corpus := scenario.Generate(scenario.Config{Seed: 11, Streams: 1, Episodes: 2})
	s := corpus.Streams[0]
	for i, e := range s.Events {
		if e.Type == trace.Wait && e.End() < trace.Time(s.Duration()) {
			s.Events[i].Cost -= 1 // the unwait no longer lands on the wait's end
			return s
		}
	}
	t.Fatal("fixture corpus has no mid-stream wait")
	return nil
}

// TestIngestGateRejectsStructuralViolation: an unverifiable stream is
// rejected 400 with the violation list, before any state changes.
func TestIngestGateRejectsStructuralViolation(t *testing.T) {
	s := newTestServer(t)
	code, body := post(t, s, corruptStream(t))
	if code != http.StatusBadRequest {
		t.Fatalf("corrupt stream: %d: %s", code, body)
	}
	var rej rejection
	if err := json.Unmarshal([]byte(body), &rej); err != nil {
		t.Fatalf("rejection body is not structured: %v\n%s", err, body)
	}
	if len(rej.Violations) == 0 || !strings.Contains(rej.Error, "violation") {
		t.Fatalf("rejection body lacks violations: %s", body)
	}
	seen := map[string]bool{}
	for _, v := range rej.Violations {
		seen[v.Analyzer] = true
		if v.File != "upload" || v.Severity != "error" || v.Line < 1 {
			t.Errorf("violation shape: %+v", v)
		}
	}
	if !seen["wait-pair"] {
		t.Errorf("wait-pair violation missing: %+v", rej.Violations)
	}
}

// trailingGarbage returns a valid TSCP stream followed by bytes the
// declared event count does not cover.
func trailingGarbage(t *testing.T, s *trace.Stream) []byte {
	t.Helper()
	return append(wireBytes(t, s), "and then some"...)
}

// TestIngestGateDecodeFailureShape: payloads that do not even decode —
// garbage, or a valid stream with bytes after its last event — report
// through the same violation shape, not a bare error string.
func TestIngestGateDecodeFailureShape(t *testing.T) {
	s := newTestServer(t)
	for name, payload := range map[string][]byte{
		"garbage":  []byte("not a stream"),
		"trailing": trailingGarbage(t, testCorpus(t).Streams[0]),
	} {
		code, body := postBytes(t, s, payload)
		if code != http.StatusBadRequest {
			t.Fatalf("%s upload: %d: %s", name, code, body)
		}
		var rej rejection
		if err := json.Unmarshal([]byte(body), &rej); err != nil {
			t.Fatalf("%s: rejection body is not structured: %v\n%s", name, err, body)
		}
		if len(rej.Violations) != 1 || rej.Violations[0].Analyzer != "stream-decode" {
			t.Fatalf("%s: decode failure violations = %+v", name, rej.Violations)
		}
	}
}

// TestIngestGateVetCounters: the gate exports vet_streams_total and
// vet_violations_total through /metrics.
func TestIngestGateVetCounters(t *testing.T) {
	corpus := testCorpus(t)
	s := newTestServer(t)
	feedAll(t, s, corpus, []int{0, 1})
	post(t, s, corruptStream(t))

	metrics := mustGet(t, s, "/metrics")
	wantStreams := "vet_streams_total 3" // 2 accepted + 1 rejected
	if !strings.Contains(metrics, wantStreams) {
		t.Errorf("metrics missing %q:\n%s", wantStreams, metrics)
	}
	if !strings.Contains(metrics, "vet_violations_total") ||
		strings.Contains(metrics, "vet_violations_total 0\n") {
		t.Errorf("metrics missing a non-zero vet_violations_total:\n%s", metrics)
	}
}

// TestIngestGateStateUnchangedAfterReject is the acceptance contract:
// after a rejected upload, the analysis state and the corpus directory
// are byte-identical to never having seen the stream.
func TestIngestGateStateUnchangedAfterReject(t *testing.T) {
	corpus := testCorpus(t)
	clean, poked := newTestServer(t), newTestServer(t)

	feedAll(t, clean, corpus, []int{0, 1, 2})

	feedAll(t, poked, corpus, []int{0, 1})
	if code, _ := post(t, poked, corruptStream(t)); code != http.StatusBadRequest {
		t.Fatalf("corrupt stream accepted: %d", code)
	}
	// Stream 2 with bytes after its last event is not stream 2: it must
	// leave no trace, and the clean upload below must still be stream 2.
	if code, _ := postBytes(t, poked, trailingGarbage(t, corpus.Streams[2])); code != http.StatusBadRequest {
		t.Fatalf("stream with trailing bytes accepted: %d", code)
	}
	feedAll(t, poked, corpus, []int{2})

	for _, url := range queryEndpoints(scenario.BrowserTabCreate) {
		rc := mustGet(t, clean, url)
		rp := mustGet(t, poked, url)
		if rc != rp {
			t.Errorf("GET %s differs after a rejected upload:\n%s\n--- clean ---\n%s", url, rp, rc)
		}
	}

	// Every counter and span below the gate reads the same: nothing past
	// the decode ran for the rejected uploads.
	pokedMetrics := mustGet(t, poked, "/metrics")
	for _, line := range strings.Split(mustGet(t, clean, "/metrics"), "\n") {
		for _, below := range []string{"tracescope_core_", "tracescope_trace_", "tracescope_ingest_stream"} {
			if strings.HasPrefix(line, below) && !strings.Contains(pokedMetrics, line+"\n") {
				t.Errorf("/metrics after rejected uploads lacks %q", line)
			}
		}
	}

	// The corpus directories hold identical files: the rejected stream
	// left no index record, no stream file, no intern growth.
	if !sameDirContents(t, clean.cfg.Dir, poked.cfg.Dir) {
		t.Error("corpus directories diverge after a rejected upload")
	}
}

// sameDirContents compares two directories' file names and bytes.
func sameDirContents(t *testing.T, a, b string) bool {
	t.Helper()
	la, lb := dirListing(t, a), dirListing(t, b)
	if len(la) != len(lb) {
		t.Logf("listing sizes differ: %v vs %v", la, lb)
		return false
	}
	for i := range la {
		if la[i] != lb[i] {
			t.Logf("listing differs: %v vs %v", la, lb)
			return false
		}
		da, err := os.ReadFile(a + "/" + la[i])
		if err != nil {
			t.Fatal(err)
		}
		db, err := os.ReadFile(b + "/" + lb[i])
		if err != nil {
			t.Fatal(err)
		}
		if string(da) != string(db) {
			t.Logf("%s differs", la[i])
			return false
		}
	}
	return true
}

func dirListing(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names
}
