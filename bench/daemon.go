package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"tracescope"
	"tracescope/internal/ingest"
	"tracescope/internal/stats"
	"tracescope/internal/trace"
	"tracescope/internal/tracevet"
)

// fleet is fleet B: one TSCP upload body per stream, on disk so that the
// bodies do not sit in the daemon's resident set.
type fleet struct {
	r      *run
	files  []string // upload body of each stream
	events int      // events of the whole fleet
	base   string   // daemon_mixed: corpus directory holding streams [0, start)
	start  int      // first stream the run posts
	paths  []string // the query rotation
}

// setup generates the fleet stream by stream into dir. For daemon_mixed
// it also appends the first half to the base corpus and warms a server
// up over it once. The query rotation covers the selected scenarios that
// already have a slow class when the first query can arrive, so that no
// query fails; which ones those are follows from the seed alone.
func (f *fleet) setup(dir string, mixed bool) error {
	sz := f.r.sz
	f.files, f.events, f.base, f.start = make([]string, sz.FleetStreams), 0, "", 0
	if err := os.MkdirAll(filepath.Join(dir, "fleet"), 0o755); err != nil {
		return err
	}
	var app *tracescope.CorpusAppender
	if mixed {
		f.base, f.start = filepath.Join(dir, "base"), sz.FleetStreams/2
		var err error
		if app, err = tracescope.OpenCorpusAppender(f.base); err != nil {
			return err
		}
	}
	queryFrom := sz.FleetStreams // ingest_grow queries the full corpus
	if mixed {
		queryFrom = f.start
	}
	slow := make(map[string]int)
	err := generate(f.r.seed, sz.FleetStreams, f.start, sz.FleetEpisodes, func(i int, s *tracescope.Stream) error {
		var body bytes.Buffer
		if err := s.WriteBinary(&body); err != nil {
			return err
		}
		f.files[i] = filepath.Join(dir, "fleet", fmt.Sprintf("%05d.tscp", i))
		f.events += len(s.Events)
		if err := os.WriteFile(f.files[i], body.Bytes(), 0o644); err != nil {
			return err
		}
		if i < queryFrom {
			for _, in := range s.Instances {
				if _, ts, ok := tracescope.Thresholds(in.Scenario); ok && in.Duration() > ts {
					slow[in.Scenario]++
				}
			}
		}
		if i < f.start {
			_, err := app.Append(s)
			return err
		}
		return nil
	})
	if err != nil {
		return err
	}
	f.paths = nil
	for _, name := range tracescope.SelectedScenarios() {
		if slow[name] > 0 {
			f.paths = append(f.paths, "/impact", "/causality?scenario="+name, "/awg?scenario="+name, "/scenarios", "/corpus")
		}
	}
	if len(f.paths) == 0 {
		return fmt.Errorf("seed %d gives no scenario a slow class; the query rotation would be empty", f.r.seed)
	}
	if mixed {
		_, err = ingest.NewServer(f.config(f.base))
	}
	return err
}

func (f *fleet) config(dir string) ingest.Config {
	return ingest.Config{Dir: dir, Thresholds: tracescope.Thresholds}
}

// daemonSamples gathers what the rounds of one run measure.
type daemonSamples struct {
	posts    [][]float64 // POST latency in ms, one slice per round, in stream order
	queries  []float64   // GET latency in ms
	byKind   map[string][]float64
	sweeps   []float64 // latency of one whole rotation, ms
	opens    []float64 // NewServer over a non-empty corpus, ms
	opened   int       // streams that corpus held
	postWall float64
	postCPU  float64
	bytesPer float64 // on-disk corpus bytes per event, last round
	finalSHA string  // hash of every query answer over the final corpus
}

func (d *daemonSamples) allPosts() []float64 {
	var all []float64
	for _, p := range d.posts {
		all = append(all, p...)
	}
	return all
}

// decile returns the median over every round's i-th tenth, the rounds
// being in arrival order.
func decile(rounds [][]float64, i int) float64 {
	var part []float64
	for _, p := range rounds {
		n := len(p) / 10
		if n == 0 {
			n = 1
		}
		part = append(part, p[i*(len(p)-n)/9:][:n]...)
	}
	return median(part)
}

// client is one caller: it sends its next request only when the previous
// one has been answered, over one keep-alive connection.
type client struct {
	http *http.Client
	base string
	log  *spanLog
}

func (c *client) do(span string, id int, method, path string, body []byte) (int, []byte, float64, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	sp := c.log.start(span, -1, id)
	t0 := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		c.log.end(sp)
		return 0, nil, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ms := time.Since(t0).Seconds() * 1e3
	c.log.end(sp)
	return resp.StatusCode, data, ms, err
}

// post uploads streams [from, to) in index order and checks that each is
// accepted under the next stream index.
func (f *fleet) post(c *client, from, to int) []float64 {
	lat := make([]float64, 0, to-from)
	for i := from; i < to; i++ {
		body, err := os.ReadFile(f.files[i])
		if err != nil {
			f.r.check(false, "reading upload %d: %v", i, err)
			continue
		}
		status, data, ms, err := c.do("ingest.request", i, http.MethodPost, "/ingest", body)
		var ack struct {
			Stream int `json:"stream"`
		}
		ok := err == nil && status == http.StatusOK && json.Unmarshal(data, &ack) == nil && ack.Stream == i
		f.r.check(ok, "POST of stream %d: status %d, error %v, body %.80s", i, status, err, data)
		lat = append(lat, ms)
	}
	return lat
}

func queryKind(path string) string {
	for _, kind := range []string{"impact", "causality", "awg"} {
		if strings.HasPrefix(path, "/"+kind) {
			return kind
		}
	}
	return "other"
}

// get answers one query of the rotation and records its latency; each
// time the rotation comes round, the sum over it is one sweep.
func (f *fleet) get(c *client, d *daemonSamples, i int) []byte {
	path := f.paths[i%len(f.paths)]
	kind := queryKind(path)
	status, data, ms, err := c.do("query."+kind, i, http.MethodGet, path, nil)
	f.r.check(err == nil && status == http.StatusOK, "GET %s: status %d, error %v, body %.80s", path, status, err, data)
	if d != nil {
		d.queries = append(d.queries, ms)
		d.byKind[kind] = append(d.byKind[kind], ms)
		if i%len(f.paths) == len(f.paths)-1 {
			d.sweeps = append(d.sweeps, stats.Sum(d.queries[len(d.queries)-len(f.paths):]))
		}
	}
	return data
}

// queryAll answers the whole rotation reps times over a corpus at rest
// and returns the hash of the answers, which must not differ between
// repetitions.
func (f *fleet) queryAll(c *client, d *daemonSamples, reps int) string {
	first := ""
	for rep := 0; rep < reps; rep++ {
		h := sha256.New()
		for i, path := range f.paths {
			fmt.Fprintf(h, "GET %s\n%s\n", path, f.get(c, d, i))
		}
		sha := hex.EncodeToString(h.Sum(nil))
		if rep == 0 {
			first = sha
		}
		f.r.check(sha == first, "query answers changed between repetitions over the same corpus")
	}
	return first
}

// serve starts the daemon over dir behind an HTTP listener on loopback.
func (f *fleet) serve(dir string, log *spanLog) (*httptest.Server, *client, float64, error) {
	t0 := time.Now()
	srv, err := ingest.NewServer(f.config(dir))
	if err != nil {
		return nil, nil, 0, err
	}
	ms := time.Since(t0).Seconds() * 1e3
	ts := httptest.NewServer(srv)
	return ts, &client{http: ts.Client(), base: ts.URL, log: log}, ms, nil
}

// finish checks a round's corpus and final answers and deletes it.
func (f *fleet) finish(d *daemonSamples, dir, final string) error {
	if d.finalSHA == "" {
		d.finalSHA = final
	}
	f.r.check(final == d.finalSHA, "final query answers differ between rounds over the same fleet")
	rep, err := tracevet.VetDir(dir, tracevet.Options{})
	if err != nil {
		return err
	}
	f.r.check(rep.Findings() == 0, "tracevet reports %d findings in the ingested corpus", rep.Findings())
	size, err := dirBytes(dir)
	if err != nil {
		return err
	}
	d.bytesPer = float64(size) / float64(f.events)
	return os.RemoveAll(dir)
}

// roundGrow is one ingest_grow round: fill an empty daemon, query it,
// drop it, start a new one over what it wrote and query that.
func (f *fleet) roundGrow(id int, d *daemonSamples, log *spanLog) error {
	dir := filepath.Join(f.r.dir, fmt.Sprintf("round-%d", id))
	ts, c, _, err := f.serve(dir, log)
	if err != nil {
		return err
	}
	cpu0, t0 := cpuSeconds(), time.Now()
	d.posts = append(d.posts, f.post(c, 0, len(f.files)))
	d.postWall += time.Since(t0).Seconds()
	d.postCPU += cpuSeconds() - cpu0
	before := f.queryAll(c, d, f.r.sz.QueryReps)
	ts.Close()

	ts, c, ms, err := f.serve(dir, log)
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	d.opens, d.opened = append(d.opens, ms), len(f.files)
	after := f.queryAll(c, d, f.r.sz.QueryReps)
	ts.Close()
	f.r.check(before == after, "query answers differ before and after the restart")
	return f.finish(d, dir, after)
}

// roundMixed is one daemon_mixed round: a daemon over the first half of
// the fleet takes the second half from one poster while one querier
// cycles the rotation until the poster is done.
func (f *fleet) roundMixed(id int, d *daemonSamples, log *spanLog) error {
	dir := filepath.Join(f.r.dir, fmt.Sprintf("round-%d", id))
	if err := copyDir(f.base, dir); err != nil {
		return err
	}
	ts, c, ms, err := f.serve(dir, log)
	if err != nil {
		return err
	}
	defer ts.Close()
	d.opens, d.opened = append(d.opens, ms), f.start

	var wg sync.WaitGroup
	done := make(chan struct{})
	cpu0, t0 := cpuSeconds(), time.Now()
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(done)
		d.posts = append(d.posts, f.post(c, f.start, len(f.files)))
	}()
	go func() {
		defer wg.Done()
		// The querier stops only between sweeps, so that every sweep it
		// reports is whole and a run has at least one.
		for i := 0; ; i++ {
			f.get(c, d, i)
			if i%len(f.paths) == len(f.paths)-1 {
				select {
				case <-done:
					return
				default:
				}
			}
		}
	}()
	wg.Wait()
	d.postWall += time.Since(t0).Seconds()
	d.postCPU += cpuSeconds() - cpu0
	return f.finish(d, dir, f.queryAll(c, nil, 1))
}

func copyDir(from, to string) error {
	if err := os.MkdirAll(to, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(from)
	if err != nil {
		return err
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func runDaemon(r *run, mixed bool) error {
	f := &fleet{r: r}
	setups, err := repeatSetup(r, func(dir string) error { return f.setup(dir, mixed) })
	if err != nil {
		return err
	}
	round := f.roundGrow
	if mixed {
		round = f.roundMixed
	}
	d := &daemonSamples{byKind: make(map[string][]float64)}
	if r.traced {
		return f.traced(d, round)
	}

	begin := time.Now()
	for n := 0; n == 0 || time.Since(begin).Seconds() < r.seconds; n++ {
		if err := round(n, d, nil); err != nil {
			return fmt.Errorf("round %d: %w", n, err)
		}
	}
	r.reportSHA = d.finalSHA
	posts, queries := d.allPosts(), d.sweeps
	r.set("setup_s", median(setups), len(setups))
	r.set("request_p50_ms", median(posts), len(posts))
	r.set("request_p90_ms", stats.Percentile(posts, 90), len(posts))
	r.set("query_p50_ms", median(queries), len(queries))
	r.set("query_p90_ms", stats.Percentile(queries, 90), len(queries))
	r.set("throughput_per_s", float64(len(posts))/d.postWall, len(posts))
	r.set("cpu_ms_per_request", d.postCPU*1e3/float64(len(posts)), len(posts))
	r.set("open_ms", median(d.opens), len(d.opens))
	r.set("peak_rss_mb", peakRSSMB(), 1)
	r.set("corpus_bytes_per_event", d.bytesPer, 1)
	return nil
}

// traced produces the per-layer metrics of a daemon workload: one round
// with a span around every request, one without for the tracing
// overhead, and a staged replay of the write path over the same bodies,
// whose corpus must answer every query as the daemon's did.
func (f *fleet) traced(d *daemonSamples, round func(int, *daemonSamples, *spanLog) error) error {
	r := f.r
	if err := round(0, d, r.log); err != nil {
		return fmt.Errorf("traced round: %w", err)
	}
	plain := &daemonSamples{byKind: make(map[string][]float64), finalSHA: d.finalSHA}
	if err := round(1, plain, nil); err != nil {
		return fmt.Errorf("untraced round: %w", err)
	}
	r.reportSHA = d.finalSHA
	posts, queries := d.allPosts(), d.queries
	p50, plainP50 := median(posts), median(plain.allPosts())
	r.set("bench.trace_overhead_share", ratio(p50-plainP50, plainP50), len(posts))
	r.set("ingest.request_p99_ms", stats.Percentile(posts, 99), len(posts))
	r.set("ingest.first_decile_p50_ms", decile(d.posts, 0), len(posts)/10)
	r.set("ingest.last_decile_p50_ms", decile(d.posts, 9), len(posts)/10)
	r.set("ingest.growth", ratio(decile(d.posts, 9), decile(d.posts, 0)), len(posts)/10)
	for _, kind := range []string{"impact", "causality", "awg"} {
		r.set("ingest.query_"+kind+"_ms", median(d.byKind[kind]), len(d.byKind[kind]))
	}
	r.set("ingest.query_p99_ms", stats.Percentile(queries, 99), len(queries))
	r.set("ingest.warmup_streams_per_s", ratio(float64(d.opened), median(d.opens)/1e3), len(d.opens))

	mark := r.log.mark()
	sha, err := f.staged()
	if err != nil {
		return fmt.Errorf("staged replay: %w", err)
	}
	r.check(sha == d.finalSHA, "the staged replay's corpus answers queries differently from the daemon's")
	stages := 0.0
	ms := func(name string) []float64 {
		v := r.log.durations(name, mark)
		for i := range v {
			v[i] *= 1e3
		}
		return v
	}
	for _, name := range []string{"trace.wire_decode", "tracevet.vet", "trace.append", "trace.reload", "core.inc_ingest"} {
		v := ms(name)
		r.set(name+"_ms", median(v), len(v))
		stages += median(v)
	}
	reloads := [][]float64{ms("trace.reload")}
	r.set("trace.reload_first_decile_ms", decile(reloads, 0), len(reloads[0])/10)
	r.set("trace.reload_last_decile_ms", decile(reloads, 9), len(reloads[0])/10)
	r.set("trace.reload_growth", ratio(decile(reloads, 9), decile(reloads, 0)), len(reloads[0])/10)
	r.set("ingest.http_overhead_ms", p50-stages, len(posts))
	r.set("core.attributed_share", ratio(stages, p50), len(posts))
	r.set("core.unattributed_s", (p50-stages)/1e3, len(posts))
	return nil
}

// staged replays the daemon's write path on one goroutine through each
// layer's public functions over the bodies the run posted, then serves
// the corpus it wrote and returns the hash of its query answers.
func (f *fleet) staged() (string, error) {
	log := f.r.log
	root := log.start("staged", -1, 0)
	defer log.end(root)
	dir := filepath.Join(f.r.dir, "staged")
	inc := tracescope.NewIncremental(tracescope.IncrementalConfig{Thresholds: tracescope.Thresholds})
	var src *tracescope.DirSource
	if f.start > 0 {
		if err := copyDir(f.base, dir); err != nil {
			return "", err
		}
		var err error
		if src, err = tracescope.OpenCorpusDir(dir); err != nil {
			return "", err
		}
		if err := inc.IngestSource(src); err != nil {
			return "", err
		}
	}
	app, err := tracescope.OpenCorpusAppender(dir)
	if err != nil {
		return "", err
	}
	for i := f.start; i < len(f.files); i++ {
		body, err := os.ReadFile(f.files[i])
		if err != nil {
			return "", err
		}
		sp := log.start("trace.wire_decode", root, i)
		s, err := trace.ReadBinary(bytes.NewReader(body))
		log.end(sp)
		if err != nil {
			return "", err
		}
		sp = log.start("tracevet.vet", root, i)
		violations := tracevet.VetStream(s, "upload", tracevet.Options{})
		log.end(sp)
		if len(violations) > 0 {
			return "", fmt.Errorf("stream %d: %d vet violations", i, len(violations))
		}
		sp = log.start("trace.append", root, i)
		idx, err := app.Append(s)
		log.end(sp)
		if err != nil {
			return "", err
		}
		sp = log.start("trace.reload", root, i)
		if src == nil {
			src, err = tracescope.OpenCorpusDir(dir)
		} else {
			_, err = src.Reload()
		}
		log.end(sp)
		if err != nil {
			return "", err
		}
		sp = log.start("core.inc_ingest", root, i)
		inc.Ingest(idx, s)
		log.end(sp)
	}
	ts, c, _, err := f.serve(dir, nil)
	if err != nil {
		return "", err
	}
	defer ts.Close()
	return f.queryAll(c, nil, 1), nil
}
