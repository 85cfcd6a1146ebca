package ingest

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"tracescope/internal/core"
	"tracescope/internal/report"
	"tracescope/internal/scenario"
	"tracescope/internal/trace"
)

func testCorpus(t *testing.T) *trace.Corpus {
	t.Helper()
	return scenario.Generate(scenario.Config{Seed: 5, Streams: 10, Episodes: 6})
}

func newTestServer(t *testing.T) *Server {
	t.Helper()
	s, err := NewServer(Config{
		Dir:        t.TempDir(),
		Filter:     trace.AllDrivers(),
		Thresholds: scenario.Thresholds,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// post uploads one stream and returns the response code and body.
func post(t *testing.T, s *Server, stream *trace.Stream) (int, string) {
	t.Helper()
	return postBytes(t, s, wireBytes(t, stream))
}

// wireBytes encodes a stream as a POST /ingest body.
func wireBytes(t *testing.T, stream *trace.Stream) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := stream.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// postBytes uploads a raw body and returns the response code and body.
func postBytes(t *testing.T, s *Server, body []byte) (int, string) {
	t.Helper()
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body)))
	return rr.Code, rr.Body.String()
}

// get fetches one query endpoint and returns the response code and body.
func get(t *testing.T, s *Server, url string) (int, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, req)
	return rr.Code, rr.Body.String()
}

// mustGet fetches a URL that must answer 200.
func mustGet(t *testing.T, s *Server, url string) string {
	t.Helper()
	code, body := get(t, s, url)
	if code != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", url, code, body)
	}
	return body
}

// feedAll uploads the corpus streams in the given order.
func feedAll(t *testing.T, s *Server, corpus *trace.Corpus, order []int) {
	t.Helper()
	for _, si := range order {
		code, body := post(t, s, corpus.Streams[si])
		if code != http.StatusOK {
			t.Fatalf("ingest stream %d: %d: %s", si, code, body)
		}
	}
}

func identityOrder(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// queryEndpoints are the endpoints whose responses must be identical
// across arrival orders once the same streams are in.
func queryEndpoints(scen string) []string {
	return []string{
		"/healthz",
		"/corpus",
		"/scenarios",
		"/impact",
		"/impact?scenario=" + scen,
		"/causality?scenario=" + scen,
		"/causality?scenario=" + scen + "&top=3",
		"/awg?scenario=" + scen + "&maxdepth=64",
		"/awg?scenario=" + scen + "&format=dot",
	}
}

// TestServerIngestAndQuery drives the full daemon surface over one
// corpus: ingest responses, health totals, and every query endpoint,
// checking the AWG render against the batch analyzer's.
func TestServerIngestAndQuery(t *testing.T) {
	corpus := testCorpus(t)
	s := newTestServer(t)
	feedAll(t, s, corpus, identityOrder(len(corpus.Streams)))

	var health struct {
		Status    string `json:"status"`
		Streams   int    `json:"streams"`
		Events    int    `json:"events"`
		Instances int    `json:"instances"`
	}
	if err := json.Unmarshal([]byte(mustGet(t, s, "/healthz")), &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Streams != corpus.NumStreams() ||
		health.Events != corpus.NumEvents() || health.Instances != corpus.NumInstances() {
		t.Fatalf("healthz mismatch: %+v", health)
	}

	var scens []struct {
		Scenario  string `json:"scenario"`
		Instances int    `json:"instances"`
	}
	if err := json.Unmarshal([]byte(mustGet(t, s, "/scenarios")), &scens); err != nil {
		t.Fatal(err)
	}
	if len(scens) != len(corpus.Scenarios()) {
		t.Fatalf("scenarios: got %d, want %d", len(scens), len(corpus.Scenarios()))
	}

	scen := scenario.BrowserTabCreate
	var caus struct {
		Scenario string           `json:"scenario"`
		Slow     int              `json:"slow"`
		Patterns []map[string]any `json:"patterns"`
	}
	if err := json.Unmarshal([]byte(mustGet(t, s, "/causality?scenario="+scen)), &caus); err != nil {
		t.Fatal(err)
	}
	if caus.Scenario != scen || caus.Slow == 0 || len(caus.Patterns) == 0 {
		t.Fatalf("causality answered no patterns: %+v", caus)
	}

	// The served AWG must be byte-identical to the batch analyzer's.
	a := core.NewAnalyzer(corpus)
	tf, ts, _ := scenario.Thresholds(scen)
	res, err := a.Causality(core.CausalityConfig{Scenario: scen, Tfast: tf, Tslow: ts})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := res.SlowAWG.WriteText(&want, 64); err != nil {
		t.Fatal(err)
	}
	if got := mustGet(t, s, "/awg?scenario="+scen+"&maxdepth=64"); got != want.String() {
		t.Fatalf("served AWG differs from batch render:\n%s\n--- want ---\n%s", got, want.String())
	}

	if code, body := get(t, s, "/causality"); code != http.StatusBadRequest {
		t.Fatalf("causality without scenario: %d: %s", code, body)
	}
	if code, body := get(t, s, "/causality?scenario=NoSuch"); code != http.StatusNotFound {
		t.Fatalf("causality for unknown scenario: %d: %s", code, body)
	}
	if code, body := get(t, s, "/ingest"); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /ingest: %d: %s", code, body)
	}
}

// TestServerRejectsGarbage checks a malformed upload is rejected
// without disturbing the corpus.
func TestServerRejectsGarbage(t *testing.T) {
	s := newTestServer(t)
	req := httptest.NewRequest(http.MethodPost, "/ingest", strings.NewReader("not a stream"))
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, req)
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("garbage upload: %d: %s", rr.Code, rr.Body.String())
	}
	var health struct {
		Streams int `json:"streams"`
	}
	if err := json.Unmarshal([]byte(mustGet(t, s, "/healthz")), &health); err != nil {
		t.Fatal(err)
	}
	if health.Streams != 0 {
		t.Fatalf("rejected upload grew the corpus to %d streams", health.Streams)
	}
}

// TestServerArrivalOrderDeterminism is the daemon-level half of the
// determinism contract: two servers fed the same streams in different
// arrival orders serve byte-identical query responses — including the
// /metrics registry, since the default recorder is clockless.
func TestServerArrivalOrderDeterminism(t *testing.T) {
	corpus := testCorpus(t)
	n := len(corpus.Streams)
	shuffled := rand.New(rand.NewSource(3)).Perm(n)

	a, b := newTestServer(t), newTestServer(t)
	feedAll(t, a, corpus, identityOrder(n))
	feedAll(t, b, corpus, shuffled)

	endpoints := append(queryEndpoints(scenario.BrowserTabCreate),
		"/metrics", "/metrics.json")
	for _, url := range endpoints {
		ra := mustGet(t, a, url)
		rb := mustGet(t, b, url)
		if ra != rb {
			t.Errorf("GET %s differs across arrival orders:\n%s\n--- other ---\n%s", url, ra, rb)
		}
	}
}

// TestServerWarmupEqualsStreaming: a daemon restarted over the corpus
// it accumulated (warm-up path) serves the same query responses as the
// daemon that ingested every stream over HTTP.
func TestServerWarmupEqualsStreaming(t *testing.T) {
	corpus := testCorpus(t)
	dir := t.TempDir()
	if err := corpus.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	warm, err := NewServer(Config{Dir: dir, Filter: trace.AllDrivers(), Thresholds: scenario.Thresholds})
	if err != nil {
		t.Fatal(err)
	}
	live := newTestServer(t)
	feedAll(t, live, corpus, identityOrder(len(corpus.Streams)))

	for _, url := range queryEndpoints(scenario.BrowserTabCreate) {
		rw := mustGet(t, warm, url)
		rl := mustGet(t, live, url)
		if rw != rl {
			t.Errorf("GET %s differs between warm-up and streaming:\n%s\n--- other ---\n%s", url, rw, rl)
		}
	}
}

// TestServerRestartsOverTornFirstUpload: a crash inside the first
// upload's index-header write leaves intern records, a stream file and
// a partial header. Nothing was committed, so the daemon must restart
// over the directory and serve a different first stream exactly as an
// empty directory would.
func TestServerRestartsOverTornFirstUpload(t *testing.T) {
	corpus := testCorpus(t)
	dir := t.TempDir()
	crashed, err := NewServer(Config{Dir: dir, Filter: trace.AllDrivers(), Thresholds: scenario.Thresholds})
	if err != nil {
		t.Fatal(err)
	}
	feedAll(t, crashed, corpus, []int{0})
	if err := os.WriteFile(filepath.Join(dir, "corpus.index"), []byte("TSIND"), 0o644); err != nil {
		t.Fatal(err)
	}

	restarted, err := NewServer(Config{Dir: dir, Filter: trace.AllDrivers(), Thresholds: scenario.Thresholds})
	if err != nil {
		t.Fatalf("NewServer over a torn index header: %v", err)
	}
	feedAll(t, restarted, corpus, []int{1})
	fresh := newTestServer(t)
	feedAll(t, fresh, corpus, []int{1})
	for _, url := range queryEndpoints(scenario.BrowserTabCreate) {
		if rr, rf := mustGet(t, restarted, url), mustGet(t, fresh, url); rr != rf {
			t.Errorf("GET %s differs between the restarted and a fresh daemon:\n%s\n--- other ---\n%s", url, rr, rf)
		}
	}
	// And what landed on disk is what a second restart warms up from.
	again, err := NewServer(Config{Dir: dir, Filter: trace.AllDrivers(), Thresholds: scenario.Thresholds})
	if err != nil {
		t.Fatal(err)
	}
	if ra, rf := mustGet(t, again, "/awg?scenario="+scenario.BrowserTabCreate), mustGet(t, fresh, "/awg?scenario="+scenario.BrowserTabCreate); ra != rf {
		t.Error("AWG after a second restart differs from a fresh daemon's")
	}
}

// TestServerSync: streams landed on disk by another appender are
// discovered by Sync without re-decoding what is already in.
func TestServerSync(t *testing.T) {
	corpus := testCorpus(t)
	dir := t.TempDir()
	s, err := NewServer(Config{Dir: dir, Filter: trace.AllDrivers(), Thresholds: scenario.Thresholds})
	if err != nil {
		t.Fatal(err)
	}
	feedAll(t, s, corpus, []int{0, 1})

	app, err := trace.OpenAppender(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Append(corpus.Streams[2]); err != nil {
		t.Fatal(err)
	}
	n, err := s.Sync()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("Sync discovered %d streams, want 1", n)
	}
	var health struct {
		Streams int `json:"streams"`
	}
	if err := json.Unmarshal([]byte(mustGet(t, s, "/healthz")), &health); err != nil {
		t.Fatal(err)
	}
	if health.Streams != 3 {
		t.Fatalf("healthz reports %d streams after sync, want 3", health.Streams)
	}
	// The HTTP path must keep working after an external append: the
	// appender re-syncs to the grown index.
	feedAll(t, s, corpus, []int{3})
	if err := json.Unmarshal([]byte(mustGet(t, s, "/healthz")), &health); err != nil {
		t.Fatal(err)
	}
	if health.Streams != 4 {
		t.Fatalf("healthz reports %d streams after post-sync ingest, want 4", health.Streams)
	}
}

// TestServerSyncAdoptsCorpusCreatedAfterStart: a server started over an
// empty directory must adopt a corpus another process writes there
// afterwards. Sync asks the disk, not the server's own appender, whether
// a corpus exists — otherwise it returns 0 forever and the next POST
// truncates the index and overwrites stream 0.
func TestServerSyncAdoptsCorpusCreatedAfterStart(t *testing.T) {
	corpus := testCorpus(t)
	dir := t.TempDir()
	s, err := NewServer(Config{Dir: dir, Filter: trace.AllDrivers(), Thresholds: scenario.Thresholds})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := s.Sync(); n != 0 || err != nil {
		t.Fatalf("Sync over an empty directory = %d, %v; want 0, nil", n, err)
	}

	app, err := trace.OpenAppender(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range corpus.Streams[:2] {
		if _, err := app.Append(st); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := s.Sync(); n != 2 || err != nil {
		t.Fatalf("Sync after an external appender started the corpus = %d, %v; want 2, nil", n, err)
	}

	feedAll(t, s, corpus, []int{2})
	var health struct {
		Streams int `json:"streams"`
	}
	if err := json.Unmarshal([]byte(mustGet(t, s, "/healthz")), &health); err != nil {
		t.Fatal(err)
	}
	if health.Streams != 3 {
		t.Fatalf("healthz reports %d streams, want 3", health.Streams)
	}
	src, err := trace.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if src.NumStreams() != 3 {
		t.Fatalf("corpus on disk has %d streams, want 3", src.NumStreams())
	}
	if got, want := src.StreamMeta(0).ID, corpus.Streams[0].ID; got != want {
		t.Fatalf("stream 0 on disk is %q, want the externally appended %q", got, want)
	}
}

// TestServerSyncCatchUpAllOrNothing: a catch-up over many streams is one
// fold (Incremental.IngestSource), so a stream whose file cannot be read
// fails the whole Sync and leaves every answer as it was — not a state
// caught up as far as the bad stream — and once the file is back the
// next Sync folds all of them, to the answers of a server that was
// POSTed the same streams.
func TestServerSyncCatchUpAllOrNothing(t *testing.T) {
	corpus := scenario.Generate(scenario.Config{Seed: 5, Streams: 14, Episodes: 6})
	dir := t.TempDir()
	s, err := NewServer(Config{Dir: dir, Filter: trace.AllDrivers(), Thresholds: scenario.Thresholds, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	feedAll(t, s, corpus, []int{0, 1})
	endpoints := queryEndpoints(scenario.BrowserTabCreate)
	before := make([]string, len(endpoints))
	for i, url := range endpoints {
		_, before[i] = get(t, s, url)
	}

	app, err := trace.OpenAppender(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range corpus.Streams[2:] {
		if _, err := app.Append(st); err != nil {
			t.Fatal(err)
		}
	}
	disk, err := trace.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(dir, disk.StreamMeta(9).File)
	if err := os.Rename(file, file+".away"); err != nil {
		t.Fatal(err)
	}

	if n, err := s.Sync(); n != 0 || !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Sync with stream 9's file missing = %d, %v; want 0 and the missing file", n, err)
	}
	for i, url := range endpoints {
		if _, after := get(t, s, url); after != before[i] {
			t.Errorf("GET %s changed over a failed Sync:\n%s\n--- before ---\n%s", url, after, before[i])
		}
	}

	if err := os.Rename(file+".away", file); err != nil {
		t.Fatal(err)
	}
	if n, err := s.Sync(); n != 12 || err != nil {
		t.Fatalf("Sync with the file back = %d, %v; want 12, nil", n, err)
	}
	posted := newTestServer(t)
	feedAll(t, posted, corpus, identityOrder(len(corpus.Streams)))
	for _, url := range endpoints {
		if got, want := mustGet(t, s, url), mustGet(t, posted, url); got != want {
			t.Errorf("GET %s after the catch-up differs from a server POSTed the same streams:\n%s\n--- want ---\n%s", url, got, want)
		}
	}
}

// TestServerSyncRejectsEditedPrefix: Sync is where another writer can
// exist, so it re-reads the whole index: a record before the last one
// edited in place (same length — the edit a tail-only Reload cannot see)
// is reported, and the stream appended after it is not ingested.
func TestServerSyncRejectsEditedPrefix(t *testing.T) {
	corpus := testCorpus(t)
	dir := t.TempDir()
	s, err := NewServer(Config{Dir: dir, Filter: trace.AllDrivers(), Thresholds: scenario.Thresholds})
	if err != nil {
		t.Fatal(err)
	}
	feedAll(t, s, corpus, []int{0, 1})
	before := mustGet(t, s, "/corpus")

	index := filepath.Join(dir, "corpus.index")
	data, err := os.ReadFile(index)
	if err != nil {
		t.Fatal(err)
	}
	id := []byte(strconv.Quote(corpus.Streams[0].ID))
	edited := bytes.Replace(data, id, bytes.ToUpper(id), 1)
	if bytes.Equal(edited, data) || len(edited) != len(data) {
		t.Fatalf("test setup: stream 0's ID %s must change case in place", id)
	}
	if err := os.WriteFile(index, edited, 0o644); err != nil {
		t.Fatal(err)
	}
	app, err := trace.OpenAppender(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Append(corpus.Streams[2]); err != nil {
		t.Fatal(err)
	}

	if n, err := s.Sync(); n != 0 || !errors.Is(err, trace.ErrBadFormat) {
		t.Fatalf("Sync over an edited index prefix = %d, %v; want 0, ErrBadFormat", n, err)
	}
	if after := mustGet(t, s, "/corpus"); after != before {
		t.Fatalf("a rejected Sync changed the corpus:\n%s\n--- before ---\n%s", after, before)
	}
}

// TestServerDiffEndpoint: GET /diff profiles a baseline directory and
// diffs it against a snapshot of the live state. With default
// parameters the JSON body must be byte-identical to the library path
// (core.Diff + report.WriteDiffJSON) over the same corpora — the same
// contract the traceanalyze -diff CLI rides on.
func TestServerDiffEndpoint(t *testing.T) {
	baseCorpus := testCorpus(t)
	candCorpus := scenario.Generate(scenario.Config{Seed: 5, Streams: 10, Episodes: 6, SlowHW: 4})

	baseDir := t.TempDir()
	if err := baseCorpus.WriteDir(baseDir); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t)
	feedAll(t, s, candCorpus, identityOrder(len(candCorpus.Streams)))

	want, err := core.Diff(baseCorpus, candCorpus, core.WithThresholds(scenario.Thresholds))
	if err != nil {
		t.Fatal(err)
	}
	var wantJSON, wantMD bytes.Buffer
	if err := report.WriteDiffJSON(&wantJSON, want); err != nil {
		t.Fatal(err)
	}
	if err := report.WriteDiffMarkdown(&wantMD, want); err != nil {
		t.Fatal(err)
	}

	q := "/diff?baseline=" + url.QueryEscape(baseDir)
	if got := mustGet(t, s, q); got != wantJSON.String() {
		t.Errorf("GET %s differs from the library JSON:\n%s\n--- library ---\n%s", q, got, wantJSON.String())
	}
	if got := mustGet(t, s, q); got != wantJSON.String() {
		t.Error("second GET /diff differs from the first: the query mutated state")
	}
	if got := mustGet(t, s, q+"&format=md"); got != wantMD.String() {
		t.Errorf("GET %s&format=md differs from the library markdown", q)
	}
	if len(want.TopRegressions) == 0 {
		t.Error("no ranked regressions against the slow-hardware corpus")
	}
}

// TestServerDiffEndpointErrors: parameter validation of /diff.
func TestServerDiffEndpointErrors(t *testing.T) {
	s := newTestServer(t)
	baseDir := t.TempDir() // exists but holds no corpus index
	cases := []struct {
		url  string
		code int
	}{
		{"/diff", http.StatusBadRequest},
		{"/diff?baseline=" + url.QueryEscape(baseDir) + "&format=xml", http.StatusBadRequest},
		{"/diff?baseline=" + url.QueryEscape(baseDir) + "&top=x", http.StatusBadRequest},
		{"/diff?baseline=" + url.QueryEscape(baseDir) + "&k=0", http.StatusBadRequest},
		{"/diff?baseline=" + url.QueryEscape(filepath.Join(baseDir, "missing")), http.StatusNotFound},
	}
	for _, tc := range cases {
		if code, body := get(t, s, tc.url); code != tc.code {
			t.Errorf("GET %s = %d (%s), want %d", tc.url, code, strings.TrimSpace(body), tc.code)
		}
	}
}
