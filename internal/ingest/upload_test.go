package ingest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"tracescope/internal/scenario"
	"tracescope/internal/trace"
	"tracescope/internal/trace/tracetest"
	"tracescope/internal/tracevet"
)

// allEndpoints is queryEndpoints for every selected scenario.
func allEndpoints() []string {
	var urls []string
	for _, name := range scenario.Selected() {
		urls = append(urls, queryEndpoints(name)...)
	}
	return urls
}

// sameAnswers fails t for each endpoint a and b answer differently.
func sameAnswers(t *testing.T, a, b *Server, urls []string) {
	t.Helper()
	for _, url := range urls {
		ca, ra := get(t, a, url)
		cb, rb := get(t, b, url)
		if ca != cb || ra != rb {
			t.Errorf("GET %s: %d %s\n--- want ---\n%d %s", url, ca, ra, cb, rb)
		}
	}
}

// TestDaemonCorpusMatchesAppender: a corpus the daemon writes from
// WriteBinary's bodies is byte for byte the corpus Appender.Append
// writes from the same streams: the stored event blocks are the ones
// that arrived, and Append would have encoded the same.
func TestDaemonCorpusMatchesAppender(t *testing.T) {
	corpus := testCorpus(t)
	s := newTestServer(t)
	feedAll(t, s, corpus, identityOrder(len(corpus.Streams)))
	dir := t.TempDir()
	app, err := trace.OpenAppender(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range corpus.Streams {
		if _, err := app.Append(st); err != nil {
			t.Fatal(err)
		}
	}
	if !sameDirContents(t, s.cfg.Dir, dir) {
		t.Error("the daemon's corpus differs from the appender's")
	}
}

// TestServerAcceptsNonCanonicalUploads: bodies whose event blocks are
// shorter than WriteBinary's, or flate-compressed, are taken as sent.
// Every answer equals a server fed WriteBinary's bodies, the stored
// stream files are the uploads' own, and the corpus vets clean.
func TestServerAcceptsNonCanonicalUploads(t *testing.T) {
	corpus := testCorpus(t)
	for _, layout := range []struct {
		name     string
		rows     int
		compress bool
	}{{"short blocks", 100, false}, {"compressed", 4096, true}} {
		t.Run(layout.name, func(t *testing.T) {
			canonical, s := newTestServer(t), newTestServer(t)
			feedAll(t, canonical, corpus, identityOrder(len(corpus.Streams)))
			for i, st := range corpus.Streams {
				body, err := tracetest.WireBody(st, layout.rows, layout.compress)
				if err != nil {
					t.Fatal(err)
				}
				if code, resp := postBytes(t, s, body); code != http.StatusOK {
					t.Fatalf("stream %d: %d: %s", i, code, resp)
				}
			}
			sameAnswers(t, s, canonical, append(allEndpoints(), "/metrics"))
			if sameDirContents(t, s.cfg.Dir, canonical.cfg.Dir) {
				t.Error("the uploads' stream files are WriteBinary's")
			}
			rep, err := tracevet.VetDir(s.cfg.Dir, tracevet.Options{Semantic: true})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Findings() > 0 {
				t.Errorf("vet of the corpus: %v", rep.Diags)
			}
		})
	}
}

// TestServerRejectsWireVersionOne: a body in the retired row encoding
// (testdata/stream-v1.tscp, written by the encoder TSCP version 2
// replaced) is answered 400 in the violation shape, naming the version
// and what to do. The corpus and every answer are as if it never came.
func TestServerRejectsWireVersionOne(t *testing.T) {
	v1, err := os.ReadFile("testdata/stream-v1.tscp")
	if err != nil {
		t.Fatal(err)
	}
	corpus := testCorpus(t)
	clean, poked := newTestServer(t), newTestServer(t)
	feedAll(t, clean, corpus, []int{0, 1})
	feedAll(t, poked, corpus, []int{0})
	code, body := postBytes(t, poked, v1)
	if code != http.StatusBadRequest {
		t.Fatalf("version-1 body: %d: %s", code, body)
	}
	var rej rejection
	if err := json.Unmarshal([]byte(body), &rej); err != nil {
		t.Fatalf("rejection body is not structured: %v\n%s", err, body)
	}
	if len(rej.Violations) != 1 || rej.Violations[0].Analyzer != "stream-decode" {
		t.Fatalf("version-1 violations = %+v", rej.Violations)
	}
	for _, want := range []string{"version 1", "tracegen -stream"} {
		if !strings.Contains(rej.Violations[0].Message, want) {
			t.Errorf("version-1 message %q does not say %q", rej.Violations[0].Message, want)
		}
	}
	feedAll(t, poked, corpus, []int{1})
	sameAnswers(t, poked, clean, allEndpoints())
	if !sameDirContents(t, clean.cfg.Dir, poked.cfg.Dir) {
		t.Error("a version-1 body changed the corpus directory")
	}
}

// TestConcurrentUploadsMatchSequential: four clients POST a fleet at
// once. Each acknowledgement describes the stream that client sent, and
// every answer afterwards equals a server fed the fleet one stream at a
// time — so no upload read buffers another had taken from the pool. CI
// runs it under -race at GOMAXPROCS 1, 2, 4 and 8.
func TestConcurrentUploadsMatchSequential(t *testing.T) {
	corpus := testCorpus(t)
	sequential, concurrent := newTestServer(t), newTestServer(t)
	feedAll(t, sequential, corpus, identityOrder(len(corpus.Streams)))
	bodies := make([][]byte, len(corpus.Streams))
	for i, st := range corpus.Streams {
		bodies[i] = wireBytes(t, st)
	}
	const clients = 4
	errs := make(chan error, len(bodies))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(bodies); i += clients {
				rr := httptest.NewRecorder()
				concurrent.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(bodies[i])))
				var ack struct {
					Events    int    `json:"events"`
					ID        string `json:"id"`
					Instances int    `json:"instances"`
				}
				st := corpus.Streams[i]
				if err := json.Unmarshal(rr.Body.Bytes(), &ack); rr.Code != http.StatusOK || err != nil ||
					ack.ID != st.ID || ack.Events != len(st.Events) || ack.Instances != len(st.Instances) {
					errs <- fmt.Errorf("stream %d: %d: %s", i, rr.Code, rr.Body)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	sameAnswers(t, concurrent, sequential, append(allEndpoints(), "/metrics"))
}

// TestLargeUploadNotPooled: the buffers a large body grew do not go
// back to the pool, where they would stay for every later upload —
// whether the events, the thread table or a block header's claimed
// size is what is large. The forged header, a 24-byte body whose one
// event block claims a 3.3 MB compressed payload and carries none, is
// answered 400 without the daemon allocating what it claims.
func TestLargeUploadNotPooled(t *testing.T) {
	events := trace.NewStream("events")
	stk := events.InternStackStrings("fs.sys!Read", "App!Main")
	events.SetThread(1, "App", "Main")
	n := maxPooledUpload/40 + 1000 // a decoded event is 40 bytes
	for i := 0; i < n; i++ {
		events.AppendEvent(trace.Event{Type: trace.Running, Time: trace.Time(i * 1000), Cost: 1000, TID: 1, WTID: trace.NoThread, Stack: stk})
	}
	events.Instances = append(events.Instances, trace.Instance{Scenario: "S", TID: 1, Start: 0, End: trace.Time(n * 1000)})
	threads := trace.NewStream("threads")
	for tid := trace.ThreadID(1); tid <= maxPooledUpload/64; tid++ {
		threads.SetThread(tid, "", "")
	}
	forged := []byte("TSCP\x02\x00\x01x" +
		"\x00\x00\x00\x00" + // frame, stack, thread and instance tables: empty
		"\x80\x80\x04" + // 65,536 events
		"\x80\x80\x04\x01" + // one block: 65,536 rows, flate-compressed,
		"\x80\x80\xcc\x01\x00") // 3,342,336 bytes raw, stored in 0
	s := newTestServer(t)
	for _, c := range []struct {
		name string
		body []byte
		code int // 0: any
	}{
		{"events", wireBytes(t, events), http.StatusOK},
		{"threads", wireBytes(t, threads), 0},
		{"forged block", forged, http.StatusBadRequest},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		code, resp := postBytes(t, s, c.body)
		runtime.ReadMemStats(&after)
		if c.code != 0 && code != c.code {
			t.Fatalf("%s: %d: %s", c.name, code, resp)
		}
		if got := after.TotalAlloc - before.TotalAlloc; c.name == "forged block" && got > 1<<20 {
			t.Errorf("a %d-byte forged body cost %d bytes of allocation", len(c.body), got)
		}
		for i := 0; i < 64; i++ {
			if u := uploads.Get().(*trace.Upload); u.Size() > maxPooledUpload {
				t.Fatalf("after %s, the pool holds an upload of %d bytes, over the %d kept", c.name, u.Size(), maxPooledUpload)
			}
		}
	}
}

// TestServerRestartsAfterFrameFreeFirstUpload: a first upload that
// holds no frame still starts corpus.intern, so the corpus reopens.
func TestServerRestartsAfterFrameFreeFirstUpload(t *testing.T) {
	s := newTestServer(t)
	if code, body := post(t, s, trace.NewStream("empty")); code != http.StatusOK {
		t.Fatalf("empty stream: %d: %s", code, body)
	}
	if _, err := NewServer(s.cfg); err != nil {
		t.Fatalf("restart over the corpus: %v", err)
	}
}

// uploadFleet returns the POST bodies of a 16-stream fleet and a server
// that has taken each of them once, so its buffers have grown to the
// fleet's largest stream.
func uploadFleet(tb testing.TB) (*Server, [][]byte) {
	tb.Helper()
	corpus := scenario.Generate(scenario.Config{Seed: 5, Streams: 16, Episodes: 6})
	s, err := NewServer(Config{Dir: tb.TempDir(), Thresholds: scenario.Thresholds})
	if err != nil {
		tb.Fatal(err)
	}
	bodies := make([][]byte, len(corpus.Streams))
	for i, st := range corpus.Streams {
		var buf bytes.Buffer
		if err := st.WriteBinary(&buf); err != nil {
			tb.Fatal(err)
		}
		bodies[i] = buf.Bytes()
	}
	postAll(tb, s, bodies)
	return s, bodies
}

// postAll POSTs every body once through ServeHTTP.
func postAll(tb testing.TB, s *Server, bodies [][]byte) {
	tb.Helper()
	reqs := make([]*http.Request, len(bodies))
	for i, b := range bodies {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(b))
	}
	w := &discard{h: make(http.Header)}
	for _, r := range reqs {
		s.ServeHTTP(w, r)
	}
}

// TestIngestUploadAllocBudget: a warm POST /ingest through ServeHTTP —
// decode, vet, append, fold — on one processor (sync.Pool keeps buffers
// per processor). Decoding TSCP's row form into a new stream and
// encoding its events again as TSC4 blocks measured 671 KB in 1,776
// allocations an upload; decoding blocks into pooled buffers and
// storing them as they came, 45 KB in 395; with the wait-pair vet in one
// presized set and the component filter matched without splitting its
// patterns, 23.7 KB in 225. The budget is that plus 25 %. The race
// detector drops pooled buffers at random, and CI runs this without it.
func TestIngestUploadAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus generation in -short mode")
	}
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers at random")
	}
	const budget = 29 << 10
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s, bodies := uploadFleet(t)
	reqs := make([]*http.Request, len(bodies))
	for i, b := range bodies {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(b))
	}
	w := &discard{h: make(http.Header)}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, r := range reqs {
		s.ServeHTTP(w, r)
	}
	runtime.ReadMemStats(&after)
	n := uint64(len(reqs))
	got, mallocs := (after.TotalAlloc-before.TotalAlloc)/n, (after.Mallocs-before.Mallocs)/n
	t.Logf("a warm upload allocated %d bytes in %d allocations (budget %d)", got, mallocs, budget)
	if got > budget {
		t.Errorf("a warm upload allocated %d bytes, budget %d", got, budget)
	}
}

// BenchmarkServerIngest POSTs a 16-stream fleet through ServeHTTP into a
// warm server, one body after another: the daemon's write path per
// upload.
func BenchmarkServerIngest(b *testing.B) {
	s, bodies := uploadFleet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(bodies[i%len(bodies)]))
		w := &discard{h: make(http.Header)}
		b.StartTimer()
		s.ServeHTTP(w, r)
	}
}
