package ingest

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"testing"

	"tracescope/internal/scenario"
)

// sample writes through jsonw the value sampleValue builds for
// encoding/json: every shape the server's bodies use, around s and x.
func sample(s string, x float64) *jsonw {
	var j jsonw
	j.beginObject()
	j.key("empty_list")
	j.beginArray()
	j.endArray()
	j.key("empty_object")
	j.beginObject()
	j.endObject()
	j.intKey("int", -42)
	j.key("list")
	j.beginArray()
	for range 2 {
		j.elem()
		j.beginObject()
		j.stringKey("s", s)
		j.floatKey("x", x)
		j.endObject()
	}
	j.endArray()
	j.stringsKey("none", nil)
	j.stringsKey("set", []string{s, "b"})
	j.stringKey("string", s)
	j.floatKey("x", x)
	j.endObject()
	return &j
}

func sampleValue(s string, x float64) any {
	item := map[string]any{"s": s, "x": x}
	v := map[string]any{
		"empty_list":   []string{},
		"empty_object": map[string]any{},
		"int":          -42,
		"list":         []any{item, item},
		"none":         []string(nil),
		"set":          []string{s, "b"},
		"string":       s,
		"x":            x,
	}
	return v
}

// jsonMatches reports whether jsonw wrote what json.MarshalIndent writes
// for the same value (plus the body's closing newline), or refused it
// alike.
func jsonMatches(t *testing.T, s string, x float64) {
	t.Helper()
	j := sample(s, x)
	want, err := json.MarshalIndent(sampleValue(s, x), "", "  ")
	if err != nil {
		if !j.bad {
			t.Fatalf("encoding/json refuses (%q, %v): %v; jsonw wrote %s", s, x, err, j.buf)
		}
		return
	}
	if j.bad {
		t.Fatalf("jsonw refuses (%q, %v), which encoding/json writes", s, x)
	}
	if !bytes.Equal(j.buf, want) {
		t.Fatalf("(%q, %v): jsonw\n%s\nencoding/json\n%s", s, x, j.buf, want)
	}
}

var jsonSeeds = []struct {
	s string
	x float64
}{
	{"sx", 0},
	{"sx", math.Copysign(0, -1)},
	{"sy<tag>&amp;", 5e-324},
	{"sz\"quoted\\", 1e-7},
	{"t\b\f\n\r\t\x00\x1f\x7f", -1e-7},
	{"u\xff\xfe invalid", 1e21},
	{"v\u2028\u2029", 1e20},
	{"wé 日本", 123456789.125},
	{"w\xe2\x80", -2.5e-300},
	{"sx", 1e-6},
	{"sx", 0.1},
	{"sx", math.NaN()},
	{"sx", math.Inf(-1)},
}

func TestJSONMatchesEncodingJSON(t *testing.T) {
	for _, c := range jsonSeeds {
		jsonMatches(t, c.s, c.x)
	}
}

// FuzzJSONMatchesEncodingJSON: for any string and any float64, jsonw
// writes what encoding/json writes, or refuses what it refuses.
func FuzzJSONMatchesEncodingJSON(f *testing.F) {
	for _, c := range jsonSeeds {
		f.Add(c.s, c.x)
	}
	f.Fuzz(jsonMatches)
}

// jsonOracleRequests are the requests TestJSONBodiesMatchReference asks
// both servers: every endpoint, with each parameter's accepted and
// refused forms, for every catalogue scenario.
func jsonOracleRequests() []string {
	odd := url.QueryEscape("Nope<&> \xff\"")
	reqs := []string{
		"/healthz", "/corpus", "/scenarios", "/impact", "/ingest",
		"/impact?scenario=" + odd,
		"/causality", "/causality?scenario=" + odd,
		"/awg", "/awg?scenario=" + odd,
		"/diff", "/diff?baseline=x&format=xml", "/diff?baseline=x&top=y",
		"/diff?baseline=x&k=0", "/diff?baseline=" + url.QueryEscape("/nonexistent/corpus"),
	}
	for _, name := range scenario.All() {
		c := "/causality?scenario=" + name
		a := "/awg?scenario=" + name
		reqs = append(reqs, "/impact?scenario="+name,
			c, c+"&k=2", c+"&top=3", c+"&top=0", c+"&k=0", c+"&k=x", c+"&top=-1",
			a, a+"&maxdepth=3", a+"&format=dot", a+"&maxdepth=0", a+"&format=svg", a+"&k=x")
	}
	return reqs
}

// TestJSONBodiesMatchReference: a server and a second one serving the
// encoding/json reference handlers (ref_test.go), fed the same uploads,
// answer every request with the same status, content type and body
// bytes: each POST ack, a rejected upload with violations, one that
// does not decode, and every query on first ask, on repeat and after
// one more upload.
func TestJSONBodiesMatchReference(t *testing.T) {
	corpus := testCorpus(t)
	s, ref := newTestServer(t), newTestServer(t)
	refH := refMux(ref)
	same := func(method, target string, body []byte) {
		t.Helper()
		var got, want *httptest.ResponseRecorder
		for _, h := range []http.Handler{s, refH} {
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, httptest.NewRequest(method, target, bytes.NewReader(body)))
			if got == nil {
				got = rr
			} else {
				want = rr
			}
		}
		if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") ||
			!bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("%s %s: %d %q\n%s\n--- reference: %d %q\n%s", method, target,
				got.Code, got.Header().Get("Content-Type"), got.Body.Bytes(),
				want.Code, want.Header().Get("Content-Type"), want.Body.Bytes())
		}
	}
	queries := jsonOracleRequests()
	ask := func() {
		for _, q := range queries {
			same(http.MethodGet, q, nil)
		}
	}
	last := len(corpus.Streams) - 1
	for _, st := range corpus.Streams[:last] {
		same(http.MethodPost, "/ingest", wireBytes(t, st))
	}
	same(http.MethodPost, "/ingest", wireBytes(t, corruptStream(t)))
	same(http.MethodPost, "/ingest", []byte("not a stream"))
	ask() // first ask: every answer mined
	ask() // repeat: every answer from the memo
	same(http.MethodPost, "/ingest", wireBytes(t, corpus.Streams[last]))
	ask()
}

// TestAWGDOTQuotesUploadedSignatures: tracevet does not check frame
// names, so an upload may carry a driver module named f".sys or f\.sys;
// /awg?format=dot must still answer one quoted DOT string per label.
// The upload is a generated stream with its fs.sys and fv.sys frames
// renamed in the wire bytes (same lengths, so the encoding holds).
func TestAWGDOTQuotesUploadedSignatures(t *testing.T) {
	corpus := testCorpus(t)
	s := newTestServer(t)
	for _, st := range corpus.Streams {
		body := wireBytes(t, st)
		body = bytes.ReplaceAll(body, []byte("fs.sys!"), []byte(`f".sys!`))
		body = bytes.ReplaceAll(body, []byte("fv.sys!"), []byte(`f\.sys!`))
		if code, resp := postBytes(t, s, body); code != http.StatusOK {
			t.Fatalf("upload: %d: %s", code, resp)
		}
	}
	var all string
	for _, name := range scenario.Selected() {
		code, dot := get(t, s, "/awg?format=dot&scenario="+name)
		if code != http.StatusOK {
			continue
		}
		all += dot
		for _, line := range strings.Split(dot, "\n") {
			if quotes := strings.Count(line, `"`) - strings.Count(line, `\"`); quotes%2 != 0 {
				t.Fatalf("%s: unbalanced quotes in %q", name, line)
			}
		}
	}
	for _, want := range []string{`f\".sys!`, `f\\.sys!`} {
		if !strings.Contains(all, want) {
			t.Errorf("no served DOT label carries %s", want)
		}
	}
}

// raceEnabled is set under the race detector (race_test.go), which drops
// sync.Pool items at random: an allocation budget that counts on pooled
// buffers does not hold under it.
var raceEnabled bool

// discard is a ResponseWriter that keeps nothing: what a hit sweep
// allocates is then the server's alone.
type discard struct{ h http.Header }

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) Write(p []byte) (int, error) { return len(p), nil }
func (d *discard) WriteHeader(int)             {}

// hitSweep returns a server fed a 16-stream corpus in which all eight
// catalogue scenarios have a slow class, the benchmark's 40-GET query
// rotation over it (for each scenario /impact, /causality, /awg,
// /scenarios and /corpus) into a ResponseWriter that keeps nothing, and
// the number of /causality requests in it. The first sweep fills the
// memo.
func hitSweep(tb testing.TB) (s *Server, sweep func(), causality int) {
	tb.Helper()
	corpus := scenario.Generate(scenario.Config{Seed: 5, Streams: 16, Episodes: 6})
	s, err := NewServer(Config{Dir: tb.TempDir(), Thresholds: scenario.Thresholds})
	if err != nil {
		tb.Fatal(err)
	}
	for _, st := range corpus.Streams {
		var buf bytes.Buffer
		if err := st.WriteBinary(&buf); err != nil {
			tb.Fatal(err)
		}
		rr := httptest.NewRecorder()
		s.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/ingest", &buf))
		if rr.Code != http.StatusOK {
			tb.Fatalf("ingest: %d: %s", rr.Code, rr.Body)
		}
	}
	var reqs []*http.Request
	for _, name := range scenario.Selected() {
		for _, path := range []string{"/impact", "/causality?scenario=" + name, "/awg?scenario=" + name, "/scenarios", "/corpus"} {
			reqs = append(reqs, httptest.NewRequest(http.MethodGet, path, nil))
		}
	}
	for _, r := range reqs {
		rr := httptest.NewRecorder()
		s.ServeHTTP(rr, r)
		if rr.Code != http.StatusOK {
			tb.Fatalf("GET %s: %d: %s", r.URL, rr.Code, rr.Body)
		}
	}
	w := &discard{h: make(http.Header)}
	return s, func() {
		for _, r := range reqs {
			s.ServeHTTP(w, r)
		}
	}, len(scenario.Selected())
}

// TestServerQueryHitAllocBudget: hitSweep's rotation, asked again of a
// server whose answers are memoised, on one processor (sync.Pool keeps
// buffers per processor). A sweep that built map bodies for encoding/json
// and sorted every sibling set it rendered measured 0.93 MB in 8.3k
// allocations; appended bodies over stored key order, without pooled
// buffers, 0.66 MB in 611 (a 40 KiB render buffer per /awg and a grown
// body per response); with them, 29 KB in 261; with the query string
// parsed once per request instead of once per parameter, 20 KB in 189.
// The budget is that plus 25 %. The race detector drops pooled buffers
// at random, and CI runs this without it.
func TestServerQueryHitAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus generation in -short mode")
	}
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers at random")
	}
	const budget = 25 << 10
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s, sweep, causality := hitSweep(t)
	hits := s.rec.Snapshot().Counter("causality_memo_hits_total")
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sweep()
	runtime.ReadMemStats(&after)
	got, mallocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("a memoised 40-GET sweep allocated %d bytes in %d allocations (budget %d)",
		got, mallocs, budget)
	if got > budget {
		t.Errorf("memoised sweep allocated %d bytes, budget %d", got, budget)
	}
	if hits = s.rec.Snapshot().Counter("causality_memo_hits_total") - hits; hits != int64(causality) {
		t.Errorf("%d of the sweep's %d causality answers came from the memo", hits, causality)
	}
}

// BenchmarkServerQueryHit times hitSweep's memoised 40-GET rotation
// through ServeHTTP: what encoding the answers costs once nothing is
// mined.
func BenchmarkServerQueryHit(b *testing.B) {
	_, sweep, _ := hitSweep(b)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		sweep()
	}
}
