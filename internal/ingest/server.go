// Package ingest is the continuous-ingestion analysis service behind
// cmd/tracescoped: trace streams arrive over HTTP, are validated and
// appended to an on-disk corpus (trace.Appender), and feed persistent
// incremental analysis state (core.Incremental) one stream at a time.
// Queries — per-scenario impact metrics, contrast patterns, AWG renders
// — answer from that state without rescanning the corpus, and /metrics
// exposes the shared obs registry. The state memoises each scenario's
// finished answer (its slow-class AWG and its mined patterns) until the
// next upload folds an instance into that scenario, so a question asked
// again over an unchanged scenario is not mined again. Every JSON body
// is appended by hand (jsonw), byte for byte what encoding/json's
// indented form of the same maps would be, so a memo hit reflects on
// nothing and sorts nothing: the AWG it renders or mines carries the key
// order its Finish computed. No response is cached.
//
// Determinism: the analysis state is order-invariant (see
// core.Incremental), and the default recorder is a clockless
// obs.MemRecorder, so two servers fed the same streams — in any arrival
// order — serve byte-identical query responses and metrics snapshots.
// Wall-clock timing is an explicit opt-in via Config.Recorder.
package ingest

import (
	"errors"
	"fmt"
	"go/token"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"

	"tracescope/internal/core"
	"tracescope/internal/diag"
	"tracescope/internal/mining"
	"tracescope/internal/obs"
	"tracescope/internal/report"
	"tracescope/internal/trace"
	"tracescope/internal/tracevet"
)

// maxStreamBytes bounds one ingested stream upload (64 MiB of TSCP is
// far beyond any simulated machine's report).
const maxStreamBytes = 64 << 20

// Config parameterises a Server.
type Config struct {
	// Dir is the corpus directory, created if missing. The server owns
	// it exclusively while running.
	Dir string
	// Filter names the components under analysis. Nil means all drivers.
	Filter *trace.ComponentFilter
	// Thresholds supplies per-scenario fast/slow thresholds for contrast
	// classification at ingest time (e.g. scenario.Thresholds). Nil
	// keeps impact metrics only.
	Thresholds func(scenario string) (tfast, tslow trace.Duration, ok bool)
	// Workers bounds the startup warm-up pool. Zero means GOMAXPROCS.
	Workers int
	// Recorder receives every layer's observability events and backs
	// /metrics. Nil means a fresh clockless MemRecorder (deterministic
	// snapshots); pass obs.NewMemRecorder(obs.WithClock(...)) for real
	// span timings.
	Recorder *obs.MemRecorder
}

// Server is the ingest-and-query HTTP surface over one corpus
// directory, and that directory's only writer: after the warm-up it
// never reads the corpus back. Each state transition (append, ingest)
// happens under one write lock, which also drops the memoised answers
// of the scenarios it folds into; queries share a read lock, so they see
// a consistent stream count and never block each other, and they fill
// the memo they miss.
type Server struct {
	cfg Config
	rec *obs.MemRecorder
	mux *http.ServeMux

	mu  sync.RWMutex
	app *trace.Appender
	inc *core.Incremental
}

// NewServer opens (or creates) the corpus directory, warms the
// incremental state up over any streams already on disk, and returns
// the ready-to-serve handler.
func NewServer(cfg Config) (*Server, error) {
	rec := cfg.Recorder
	if rec == nil {
		rec = obs.NewMemRecorder()
	}
	app, err := trace.OpenAppender(cfg.Dir)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg: cfg,
		rec: rec,
		app: app,
		inc: core.NewIncremental(core.IncrementalConfig{
			Filter:     cfg.Filter,
			Thresholds: cfg.Thresholds,
			Workers:    cfg.Workers,
			Recorder:   rec,
		}),
	}
	if app.NumStreams() > 0 {
		// The one time the server reads its corpus: every later stream
		// arrives through handleIngest, already decoded.
		src, err := trace.OpenDir(cfg.Dir)
		if err != nil {
			return nil, err
		}
		src.SetRecorder(rec)
		if err := s.inc.IngestSource(src); err != nil {
			return nil, err
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/ingest", s.handleIngest)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/metrics.json", s.handleMetricsJSON)
	mux.HandleFunc("/scenarios", s.handleScenarios)
	mux.HandleFunc("/impact", s.handleImpact)
	mux.HandleFunc("/causality", s.handleCausality)
	mux.HandleFunc("/awg", s.handleAWG)
	mux.HandleFunc("/corpus", s.handleCorpus)
	mux.HandleFunc("/diff", s.handleDiff)
	s.mux = mux
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// uploads holds upload buffers done with, so that a POST decodes into
// the memory an earlier one grew.
var uploads = sync.Pool{New: func() any { return new(trace.Upload) }}

// maxPooledUpload bounds the bytes an upload's buffers may hold and
// still go back to uploads: one large body must not pin its buffers for
// every later one. A fleet stream of ≈ 7k events holds ≈ 0.35 MB.
const maxPooledUpload = 4 << 20

// releaseUpload returns u to uploads unless a large body grew it.
func releaseUpload(u *trace.Upload) {
	if u.Size() <= maxPooledUpload {
		uploads.Put(u)
	}
}

// handleIngest accepts one TSCP binary stream per POST, appends it to
// the corpus, and folds the decoded stream it holds into the analysis
// state. The response names the assigned stream index. The body is
// decoded into pooled buffers, which go back to the pool once the fold
// has run and the response holds what it reports of the stream.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, s.rec, http.StatusMethodNotAllowed, "POST a TSCP binary stream to /ingest")
		return
	}
	sp := s.rec.Start("ingest_request")
	defer sp.End()

	up := uploads.Get().(*trace.Upload)
	defer releaseUpload(up)
	stream, err := trace.ReadUpload(io.LimitReader(r.Body, maxStreamBytes+1), up)
	if err != nil {
		// A payload that does not even decode still reports through the
		// violation shape, so clients parse one rejection format.
		s.rejectIngest(w, []diag.Diagnostic{{
			Pos:      token.Position{Filename: ingestArtifact, Line: 1},
			Analyzer: "stream-decode",
			Severity: diag.SevError,
			Message:  fmt.Sprintf("stream does not decode: %v", err),
		}})
		return
	}

	// Admission gate: structural verification before any state changes.
	// A rejected stream leaves the corpus directory and the incremental
	// analysis state byte-identical to never having seen it.
	if vio := tracevet.VetStream(stream, ingestArtifact, tracevet.Options{}); len(vio) > 0 {
		s.rejectIngest(w, vio)
		return
	}
	s.rec.Add("vet_streams_total", 1)

	// Ingestion is deliberately serialized under the write lock: append
	// order defines stream indices, and the fold takes each stream as the
	// index the appender just gave it (see DESIGN.md on the single-writer
	// corpus contract).
	s.mu.Lock()
	idx, err := s.app.AppendUpload(up)
	if err == nil {
		s.inc.Ingest(idx, stream)
	}
	streams, events, instances := s.inc.NumStreams(), s.inc.NumEvents(), s.inc.NumInstances()
	s.mu.Unlock()
	if err != nil {
		s.rec.Add("ingest_rejected_total", 1)
		status := http.StatusInternalServerError
		if errors.Is(err, trace.ErrBadFormat) {
			status = http.StatusBadRequest
		}
		httpError(w, s.rec, status, "appending stream: %v", err)
		return
	}

	s.rec.Add("ingest_streams_total", 1)
	s.rec.Add("ingest_instances_total", int64(len(stream.Instances)))
	j := newJSON()
	j.beginObject()
	j.intKey("corpus_events", int64(events))
	j.intKey("corpus_instances", int64(instances))
	j.intKey("corpus_streams", int64(streams))
	j.intKey("events", int64(len(stream.Events)))
	j.stringKey("id", stream.ID)
	j.intKey("instances", int64(len(stream.Instances)))
	j.intKey("stream", int64(idx))
	j.endObject()
	writeJSON(w, s.rec, http.StatusOK, j)
}

// ingestArtifact names the uploaded stream in rejection violations: the
// payload has no file of its own yet.
const ingestArtifact = "upload"

// rejectIngest answers one admission-gate rejection: a structured 400
// whose body carries the full violation list in the shared diagnostic
// shape (file/line/analyzer/message/severity).
func (s *Server) rejectIngest(w http.ResponseWriter, vio []diag.Diagnostic) {
	s.rec.Add("vet_streams_total", 1)
	s.rec.Add("vet_violations_total", int64(len(vio)))
	s.rec.Add("ingest_rejected_total", 1)
	s.rec.Add("ingest_http_errors_total", 1)
	j := newJSON()
	j.beginObject()
	j.stringKey("error", fmt.Sprintf("stream rejected: %d verification violation(s)", len(vio)))
	j.key("violations")
	j.beginArray()
	for _, f := range diag.Findings(vio) {
		// A struct's members, in diag.Finding's field order.
		j.elem()
		j.beginObject()
		j.stringKey("file", f.File)
		j.intKey("line", int64(f.Line))
		j.intKey("col", int64(f.Col))
		j.stringKey("analyzer", f.Analyzer)
		j.stringKey("message", f.Message)
		j.stringKey("severity", f.Severity)
		j.endObject()
	}
	j.endArray()
	j.endObject()
	writeJSON(w, s.rec, http.StatusBadRequest, j)
}

// handleHealthz reports liveness plus the corpus totals ingested so far.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	streams := s.inc.NumStreams()
	events := s.inc.NumEvents()
	instances := s.inc.NumInstances()
	dur := s.inc.TotalDuration()
	s.mu.RUnlock()
	j := newJSON()
	j.beginObject()
	j.intKey("duration_us", int64(dur))
	j.intKey("events", int64(events))
	j.intKey("instances", int64(instances))
	j.stringKey("status", "ok")
	j.intKey("streams", int64(streams))
	j.endObject()
	writeJSON(w, s.rec, http.StatusOK, j)
}

// handleMetrics serves the obs registry in Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.rec.Snapshot().WritePrometheus(w); err != nil {
		s.rec.Add("ingest_response_errors_total", 1)
	}
}

// handleMetricsJSON serves the obs registry as JSON.
func (s *Server) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := s.rec.Snapshot().WriteJSON(w); err != nil {
		s.rec.Add("ingest_response_errors_total", 1)
	}
}

// handleScenarios lists the scenarios ingested so far, sorted by name.
func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	sp := s.rec.Start("query_scenarios")
	defer sp.End()
	s.mu.RLock()
	counts := s.inc.Scenarios()
	s.mu.RUnlock()
	j := newJSON()
	j.scenarioCounts(counts)
	writeJSON(w, s.rec, http.StatusOK, j)
}

// scenarioCounts writes the scenario list /scenarios and /corpus share.
func (j *jsonw) scenarioCounts(counts []trace.ScenarioCount) {
	j.beginArray()
	for _, sc := range counts {
		j.elem()
		j.beginObject()
		j.intKey("instances", int64(sc.Instances))
		j.stringKey("scenario", sc.Name)
		j.endObject()
	}
	j.endArray()
}

// handleImpact serves the impact metrics of one scenario (or, with no
// scenario parameter, of every instance).
func (s *Server) handleImpact(w http.ResponseWriter, r *http.Request) {
	sp := s.rec.Start("query_impact")
	defer sp.End()
	scen := r.URL.Query().Get("scenario")
	s.mu.RLock()
	m := s.inc.Impact(scen)
	s.mu.RUnlock()
	j := newJSON()
	j.beginObject()
	j.intKey("drun_us", int64(m.Drun))
	j.intKey("dscn_us", int64(m.Dscn))
	j.intKey("dwait_us", int64(m.Dwait))
	j.intKey("dwaitdist_us", int64(m.Dwaitdist))
	j.floatKey("ia_opt", m.IAopt())
	j.floatKey("ia_run", m.IArun())
	j.floatKey("ia_wait", m.IAwait())
	j.intKey("instances", int64(m.Instances))
	j.stringKey("scenario", scen)
	j.endObject()
	writeJSON(w, s.rec, http.StatusOK, j)
}

// causalityParams reads the two parameters /causality and /awg take from
// the request's parsed query: the scenario (required) and the mining
// bound k, which /awg has always accepted and still validates, though an
// unmined graph does not depend on it.
func causalityParams(q url.Values) (scen string, params mining.Params, err error) {
	if scen = q.Get("scenario"); scen == "" {
		return "", params, fmt.Errorf("scenario parameter is required")
	}
	if kstr := q.Get("k"); kstr != "" {
		k, err := strconv.Atoi(kstr)
		if err != nil || k < 1 {
			return "", params, fmt.Errorf("bad k %q", kstr)
		}
		params.K = k
	}
	return scen, params, nil
}

// handleCausality serves one scenario's ranked contrast patterns and
// coverage aggregates.
func (s *Server) handleCausality(w http.ResponseWriter, r *http.Request) {
	sp := s.rec.Start("query_causality")
	defer sp.End()
	q := r.URL.Query()
	scen, params, err := causalityParams(q)
	if err != nil {
		httpError(w, s.rec, http.StatusBadRequest, "%v", err)
		return
	}
	s.mu.RLock()
	res, err := s.inc.Causality(scen, params)
	s.mu.RUnlock()
	if err != nil {
		httpError(w, s.rec, http.StatusNotFound, "%v", err)
		return
	}
	top := len(res.Patterns)
	if tstr := q.Get("top"); tstr != "" {
		t, err := strconv.Atoi(tstr)
		if err != nil || t < 0 {
			httpError(w, s.rec, http.StatusBadRequest, "bad top %q", tstr)
			return
		}
		if t < top {
			top = t
		}
	}
	j := newJSON()
	j.beginObject()
	j.floatKey("driver_cost_share", res.DriverCostShare)
	j.intKey("fast", int64(res.FastCount))
	j.intKey("instances", int64(res.Instances))
	j.floatKey("itc", res.ITC)
	j.intKey("num_contrasts", int64(res.NumContrasts))
	j.key("patterns")
	j.beginArray()
	for _, p := range res.Patterns[:top] {
		j.elem()
		j.pattern(p)
	}
	j.endArray()
	j.intKey("ratio_contrasts", int64(res.RatioContrasts))
	j.floatKey("reduced_share", res.ReducedShare)
	j.stringKey("scenario", res.Scenario)
	j.intKey("slow", int64(res.SlowCount))
	j.intKey("slow_only_contrasts", int64(res.SlowOnlyContrasts))
	j.intKey("tfast_us", int64(res.Tfast))
	j.intKey("tslow_us", int64(res.Tslow))
	j.floatKey("ttc", res.TTC)
	j.endObject()
	writeJSON(w, s.rec, http.StatusOK, j)
}

// pattern writes one ranked pattern. Its signature sets are a
// sigset.Tuple's: sorted, and nil when empty, so an empty set is null.
func (j *jsonw) pattern(p mining.Pattern) {
	j.beginObject()
	j.intKey("avg_us", int64(p.AvgC()))
	j.intKey("cost_us", int64(p.C))
	j.key("description")
	j.tmp = p.AppendDescribe(j.tmp[:0])
	j.buf = appendJSONString(j.buf, j.tmp)
	j.intKey("max_exec_us", int64(p.MaxExec))
	j.intKey("n", p.N)
	j.stringsKey("running", p.Tuple.Running)
	j.stringsKey("unwait", p.Tuple.Unwait)
	j.stringsKey("wait", p.Tuple.Wait)
	j.endObject()
}

// handleAWG renders one scenario's slow-class Aggregated Wait Graph as
// text (default) or DOT: the graph a causality query mines, without the
// mining.
func (s *Server) handleAWG(w http.ResponseWriter, r *http.Request) {
	sp := s.rec.Start("query_awg")
	defer sp.End()
	q := r.URL.Query()
	scen, _, err := causalityParams(q)
	if err != nil {
		httpError(w, s.rec, http.StatusBadRequest, "%v", err)
		return
	}
	s.mu.RLock()
	slowAWG, err := s.inc.SlowAWG(scen)
	s.mu.RUnlock()
	if err != nil {
		httpError(w, s.rec, http.StatusNotFound, "%v", err)
		return
	}
	if slowAWG == nil {
		httpError(w, s.rec, http.StatusNotFound, "scenario %q has no slow class yet", scen)
		return
	}
	maxDepth := 64
	if dstr := q.Get("maxdepth"); dstr != "" {
		d, err := strconv.Atoi(dstr)
		if err != nil || d < 1 {
			httpError(w, s.rec, http.StatusBadRequest, "bad maxdepth %q", dstr)
			return
		}
		maxDepth = d
	}
	switch format := q.Get("format"); format {
	case "", "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		err = slowAWG.WriteText(w, maxDepth)
	case "dot":
		w.Header().Set("Content-Type", "text/vnd.graphviz; charset=utf-8")
		err = slowAWG.WriteDOT(w, scen)
	default:
		httpError(w, s.rec, http.StatusBadRequest, "bad format %q (want text or dot)", format)
		return
	}
	if err != nil {
		s.rec.Add("ingest_response_errors_total", 1)
	}
}

// handleDiff serves the corpus-vs-corpus regression report: a snapshot
// of the live incremental state (the candidate) diffed against a
// baseline corpus directory profiled on demand with the server's own
// configuration. GET /diff?baseline=DIR [&top=N] [&k=K]
// [&format=json|md]. The baseline profiling and the diff itself run
// outside the lock — only the snapshot is taken under it, so ingestion
// never stalls behind a diff. With default parameters the JSON body is
// byte-identical to `traceanalyze -diff BASELINE CORPUS -format json`
// over the same pair.
func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	sp := s.rec.Start("query_diff")
	defer sp.End()
	q := r.URL.Query()
	dir := q.Get("baseline")
	if dir == "" {
		httpError(w, s.rec, http.StatusBadRequest, "baseline parameter is required (a corpus directory)")
		return
	}
	format := q.Get("format")
	if format == "" {
		format = "json"
	}
	if format != "json" && format != "md" {
		httpError(w, s.rec, http.StatusBadRequest, "bad format %q (want json or md)", format)
		return
	}
	top := 10
	if tstr := q.Get("top"); tstr != "" {
		t, err := strconv.Atoi(tstr)
		if err != nil {
			httpError(w, s.rec, http.StatusBadRequest, "bad top %q", tstr)
			return
		}
		top = t
	}
	var params mining.Params
	if kstr := q.Get("k"); kstr != "" {
		k, err := strconv.Atoi(kstr)
		if err != nil || k < 1 {
			httpError(w, s.rec, http.StatusBadRequest, "bad k %q", kstr)
			return
		}
		params.K = k
	}

	baseSrc, err := trace.OpenDir(dir)
	if err != nil {
		httpError(w, s.rec, http.StatusNotFound, "opening baseline: %v", err)
		return
	}
	base := core.NewIncremental(core.IncrementalConfig{
		Filter:     s.cfg.Filter,
		Thresholds: s.cfg.Thresholds,
		Workers:    s.cfg.Workers,
		Recorder:   s.rec,
	})
	if err := base.IngestSource(baseSrc); err != nil {
		httpError(w, s.rec, http.StatusInternalServerError, "profiling baseline: %v", err)
		return
	}

	s.mu.RLock()
	snap := s.inc.Snapshot()
	s.mu.RUnlock()

	res := core.DiffIncrementals(base, snap,
		core.WithMiningParams(params),
		core.WithTopEdges(top),
		core.WithRecorder(s.rec))
	switch format {
	case "md":
		w.Header().Set("Content-Type", "text/markdown; charset=utf-8")
		err = report.WriteDiffMarkdown(w, res)
	default:
		w.Header().Set("Content-Type", "application/json")
		err = report.WriteDiffJSON(w, res)
	}
	if err != nil {
		s.rec.Add("ingest_response_errors_total", 1)
	}
}

// handleCorpus reports the on-disk corpus shape: stream totals plus the
// per-scenario instance counts.
func (s *Server) handleCorpus(w http.ResponseWriter, r *http.Request) {
	sp := s.rec.Start("query_corpus")
	defer sp.End()
	s.mu.RLock()
	counts := s.inc.Scenarios()
	streams := s.inc.NumStreams()
	events := s.inc.NumEvents()
	instances := s.inc.NumInstances()
	dur := s.inc.TotalDuration()
	s.mu.RUnlock()
	j := newJSON()
	j.beginObject()
	j.intKey("duration_us", int64(dur))
	j.intKey("events", int64(events))
	j.intKey("instances", int64(instances))
	j.key("scenarios")
	j.scenarioCounts(counts)
	j.intKey("streams", int64(streams))
	j.endObject()
	writeJSON(w, s.rec, http.StatusOK, j)
}

// writeJSON writes the body j holds, closed by a newline, and releases j. A body holding
// a NaN or an infinity, which JSON cannot carry, is a programming error
// answered 500, as encoding/json would have refused it. Response-write
// failures (client went away) are counted, not surfaced.
func writeJSON(w http.ResponseWriter, rec obs.Recorder, status int, j *jsonw) {
	defer j.release()
	if j.bad {
		http.Error(w, "internal marshal failure", http.StatusInternalServerError)
		rec.Add("ingest_response_errors_total", 1)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	j.buf = append(j.buf, '\n')
	if _, err := w.Write(j.buf); err != nil {
		rec.Add("ingest_response_errors_total", 1)
	}
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, rec obs.Recorder, status int, format string, args ...any) {
	rec.Add("ingest_http_errors_total", 1)
	j := newJSON()
	j.beginObject()
	j.stringKey("error", fmt.Sprintf(format, args...))
	j.endObject()
	writeJSON(w, rec, status, j)
}
