package ingest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"tracescope/internal/core"
	"tracescope/internal/report"
	"tracescope/internal/scenario"
	"tracescope/internal/trace"
	"tracescope/internal/tracevet"
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

// TestServerMemoUnderConcurrentQueries: one poster uploads the corpus
// while two queriers ask every scenario's causality and AWG over and
// over, filling and reading memoised answers that each upload drops.
// Afterwards every endpoint answers byte for byte as a server that was
// fed the same streams and asked nothing. CI runs it under -race at
// GOMAXPROCS 1, 2, 4 and 8.
func TestServerMemoUnderConcurrentQueries(t *testing.T) {
	corpus := testCorpus(t)
	bodies := make([][]byte, len(corpus.Streams))
	for i, st := range corpus.Streams {
		bodies[i] = wireBytes(t, st)
	}
	var asked []string
	for _, name := range scenario.Selected() {
		asked = append(asked, "/causality?scenario="+name, "/awg?scenario="+name,
			"/causality?scenario="+name+"&k=2", "/awg?scenario="+name+"&format=dot")
	}

	s := newTestServer(t)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for q := 0; q < 2; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			for i := q; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				url := asked[i%len(asked)]
				if code, body := get(t, s, url); code != http.StatusOK && code != http.StatusNotFound {
					t.Errorf("GET %s while posting: %d: %s", url, code, body)
				}
			}
		}(q)
	}
	for i, body := range bodies {
		if code, resp := postBytes(t, s, body); code != http.StatusOK {
			t.Errorf("ingest stream %d: %d: %s", i, code, resp)
		}
	}
	close(done)
	wg.Wait()

	fresh := newTestServer(t)
	feedAll(t, fresh, corpus, identityOrder(len(corpus.Streams)))
	var endpoints []string
	for _, name := range scenario.Selected() {
		endpoints = append(endpoints, queryEndpoints(name)...)
		endpoints = append(endpoints, "/causality?scenario="+name+"&k=2", "/awg?scenario="+name+"&maxdepth=3")
	}
	for _, url := range endpoints {
		gc, got := get(t, s, url)
		wc, want := get(t, fresh, url)
		if gc != wc || got != want {
			t.Errorf("GET %s after concurrent queries: %d\n%s\n--- fresh server: %d ---\n%s", url, gc, got, wc, want)
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

// TestServerRestartMidFeedEqualsStreaming is the workflow a stream
// produced elsewhere takes into a corpus: a daemon takes the first k
// uploads of a shuffled order, stops, restarts over its directory (the
// warm-up folds what it appended) and takes the rest over HTTP. Every
// query endpoint — the 404s and /diff included — must answer byte for
// byte as one daemon fed everything does, and again after a second
// restart.
func TestServerRestartMidFeedEqualsStreaming(t *testing.T) {
	corpus := testCorpus(t)
	n := len(corpus.Streams)
	order := rand.New(rand.NewSource(9)).Perm(n)
	baseDir := t.TempDir()
	if err := scenario.Generate(scenario.Config{Seed: 6, Streams: 4, Episodes: 6}).WriteDir(baseDir); err != nil {
		t.Fatal(err)
	}
	scen := scenario.BrowserTabCreate
	endpoints := append(queryEndpoints(scen),
		"/causality?scenario=NoSuch", "/awg?scenario=NoSuch",
		"/diff?baseline="+url.QueryEscape(baseDir),
		"/diff?baseline="+url.QueryEscape(baseDir)+"&format=md")

	streamed := newTestServer(t)
	feedAll(t, streamed, corpus, identityOrder(n))
	want := make([]string, len(endpoints))
	for i, u := range endpoints {
		code, body := get(t, streamed, u)
		want[i] = strconv.Itoa(code) + " " + body
	}
	check := func(s *Server, what string) {
		t.Helper()
		for i, u := range endpoints {
			code, body := get(t, s, u)
			if got := strconv.Itoa(code) + " " + body; got != want[i] {
				t.Errorf("%s: GET %s differs from the streamed daemon:\n%s\n--- want ---\n%s", what, u, got, want[i])
			}
		}
	}

	for _, k := range []int{0, 1, n / 2, n - 1} {
		dir := t.TempDir()
		open := func() *Server {
			t.Helper()
			s, err := NewServer(Config{Dir: dir, Filter: trace.AllDrivers(), Thresholds: scenario.Thresholds})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		feedAll(t, open(), corpus, order[:k])
		restarted := open()
		feedAll(t, restarted, corpus, order[k:])
		check(restarted, fmt.Sprintf("k=%d, restarted", k))
		check(open(), fmt.Sprintf("k=%d, second restart", k))
	}
}

// TestServerRefusesUploadBehindForeignWriter: the daemon is its corpus's
// only writer. When another appender lands a stream in the directory
// anyway, the next upload is refused with a 500 before anything is
// written — the state the daemon serves stays as it was, and the
// directory stays the other writer's corpus, which loads and vets clean.
func TestServerRefusesUploadBehindForeignWriter(t *testing.T) {
	corpus := testCorpus(t)
	dir := t.TempDir()
	s, err := NewServer(Config{Dir: dir, Filter: trace.AllDrivers(), Thresholds: scenario.Thresholds})
	if err != nil {
		t.Fatal(err)
	}
	feedAll(t, s, corpus, []int{0, 1})
	endpoints := queryEndpoints(scenario.BrowserTabCreate)
	before := make([]string, len(endpoints))
	for i, u := range endpoints {
		before[i] = mustGet(t, s, u)
	}

	foreign, err := trace.OpenAppender(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := foreign.Append(corpus.Streams[2]); err != nil {
		t.Fatal(err)
	}
	if code, body := post(t, s, corpus.Streams[3]); code != http.StatusInternalServerError {
		t.Fatalf("upload behind a foreign writer: %d: %s", code, body)
	}
	for i, u := range endpoints {
		if after := mustGet(t, s, u); after != before[i] {
			t.Errorf("GET %s changed over a refused upload:\n%s\n--- before ---\n%s", u, after, before[i])
		}
	}

	src, err := trace.OpenDir(dir)
	if err != nil {
		t.Fatalf("OpenDir after the refused upload: %v", err)
	}
	for i, want := range []int{0, 1, 2} {
		if got := src.StreamMeta(i).ID; got != corpus.Streams[want].ID {
			t.Errorf("stream %d on disk is %q, want %q", i, got, corpus.Streams[want].ID)
		}
	}
	if src.NumStreams() != 3 {
		t.Errorf("corpus on disk has %d streams, want 3", src.NumStreams())
	}
	rep, err := tracevet.VetDir(dir, tracevet.Options{Semantic: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Findings() != 0 {
		t.Errorf("tracevet over the directory: %v", rep.Diags)
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
