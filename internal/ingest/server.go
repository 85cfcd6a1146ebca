// Package ingest is the continuous-ingestion analysis service behind
// cmd/tracescoped: trace streams arrive over HTTP, are validated and
// appended to an on-disk corpus (trace.Appender), and feed persistent
// incremental analysis state (core.Incremental) one stream at a time.
// Queries — per-scenario impact metrics, contrast patterns, AWG renders
// — answer from that state without rescanning the corpus, and /metrics
// exposes the shared obs registry.
//
// Determinism: the analysis state is order-invariant (see
// core.Incremental), and the default recorder is a clockless
// obs.MemRecorder, so two servers fed the same streams — in any arrival
// order — serve byte-identical query responses and metrics snapshots.
// Wall-clock timing is an explicit opt-in via Config.Recorder.
package ingest

import (
	"encoding/json"
	"errors"
	"fmt"
	"go/token"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"

	"tracescope/internal/core"
	"tracescope/internal/diag"
	"tracescope/internal/impact"
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
// directory. All state transitions (append, reload, ingest) happen
// under one write lock; queries share a read lock, so they see a
// consistent stream count and never block each other.
type Server struct {
	cfg Config
	rec *obs.MemRecorder
	mux *http.ServeMux

	mu  sync.RWMutex
	app *trace.Appender
	src *trace.DirSource // nil until the corpus has an index
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
		if err := s.openSourceLocked(); err != nil {
			return nil, err
		}
		if err := s.inc.IngestSource(s.src); err != nil {
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

// openSourceLocked opens the lazy directory source; the caller holds
// the write lock (or is still single-threaded in NewServer).
func (s *Server) openSourceLocked() error {
	src, err := trace.OpenDir(s.cfg.Dir)
	if err != nil {
		return err
	}
	src.SetRecorder(s.rec)
	s.src = src
	return nil
}

// ingestUploadLocked folds the upload just appended as stream idx, which
// the caller holds decoded, into the analysis state: when it is the only
// indexed-but-not-yet-ingested stream — the common path — it is folded
// as it is, never re-read. An upload landing beside streams another
// process appended goes in with them, as a -watch catch-up does: through
// the fold every corpus-sized sweep runs (Incremental.IngestSource),
// parallel, decoding into its workers' buffers, and all or nothing, so a
// stream that cannot be fetched leaves the state as it was. The caller
// holds the write lock.
func (s *Server) ingestUploadLocked(idx int, stream *trace.Stream) error {
	if idx == s.inc.NumStreams() && idx+1 == s.src.NumStreams() {
		s.inc.Ingest(idx, stream)
		return nil
	}
	return s.inc.IngestSource(s.src)
}

// Sync reloads the corpus index and ingests any streams that landed on
// disk outside the HTTP path (another process appending to the same
// directory). It returns the number of newly ingested streams; a
// corpus directory that still has no index is not an error. The
// tracescoped -watch loop calls this periodically.
func (s *Server) Sync() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sp := s.rec.Start("ingest_sync")
	defer sp.End()
	if s.src == nil {
		// s.app counts only what this server appended; whether another
		// process has started the corpus since is a question for the disk.
		app, err := trace.OpenAppender(s.cfg.Dir)
		if err != nil {
			return 0, err
		}
		if app.NumStreams() == 0 {
			return 0, nil
		}
		if err := s.openSourceLocked(); err != nil {
			return 0, err
		}
		s.app = app
	} else {
		// Only here can another process have written the index, so only
		// here is its whole prefix re-read and compared; Reload itself
		// trusts everything before its last known record.
		if err := s.src.VerifyPrefix(); err != nil {
			return 0, err
		}
		// The reload runs under the write lock by design: Sync is the
		// serialization point, the index reload must see a frozen analysis
		// state, and the watch loop is the only caller.
		if _, err := s.src.Reload(); err != nil {
			return 0, err
		}
	}
	before := s.inc.NumStreams()
	if err := s.inc.IngestSource(s.src); err != nil {
		return 0, err
	}
	n := s.inc.NumStreams() - before
	if s.app.NumStreams() != s.src.NumStreams() {
		// Another appender grew the index past ours; re-open so the next
		// HTTP ingest continues from the true stream count instead of
		// overwriting the externally landed files.
		app, err := trace.OpenAppender(s.cfg.Dir)
		if err != nil {
			return n, err
		}
		s.app = app
	}
	return n, nil
}

// handleIngest accepts one TSCP binary stream per POST, appends it to
// the corpus, reloads the source metadata, and folds it into the
// analysis state. The response names the assigned stream index.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, s.rec, http.StatusMethodNotAllowed, "POST a TSCP binary stream to /ingest")
		return
	}
	sp := s.rec.Start("ingest_request")
	defer sp.End()

	body := io.LimitReader(r.Body, maxStreamBytes+1)
	stream, err := trace.ReadBinary(body)
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
	// order defines stream indices, and a concurrent append would fork
	// the index (see DESIGN.md on the single-writer corpus contract).
	s.mu.Lock()
	idx, err := s.app.Append(stream)
	if err != nil {
		s.mu.Unlock()
		s.rec.Add("ingest_rejected_total", 1)
		status := http.StatusInternalServerError
		if errors.Is(err, trace.ErrBadFormat) {
			status = http.StatusBadRequest
		}
		httpError(w, s.rec, status, "appending stream: %v", err)
		return
	}
	if s.src == nil {
		err = s.openSourceLocked()
	} else {
		// The reload must observe the append this same critical section
		// just made; releasing between the two would let a second ingest
		// interleave and misnumber both responses.
		_, err = s.src.Reload()
	}
	if err == nil {
		err = s.ingestUploadLocked(idx, stream)
	}
	streams, events, instances := s.inc.NumStreams(), s.inc.NumEvents(), s.inc.NumInstances()
	s.mu.Unlock()
	if err != nil {
		httpError(w, s.rec, http.StatusInternalServerError, "ingesting stream: %v", err)
		return
	}

	s.rec.Add("ingest_streams_total", 1)
	s.rec.Add("ingest_instances_total", int64(len(stream.Instances)))
	writeJSON(w, s.rec, http.StatusOK, map[string]any{
		"stream":           idx,
		"id":               stream.ID,
		"events":           len(stream.Events),
		"instances":        len(stream.Instances),
		"corpus_streams":   streams,
		"corpus_events":    events,
		"corpus_instances": instances,
	})
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
	writeJSON(w, s.rec, http.StatusBadRequest, map[string]any{
		"error":      fmt.Sprintf("stream rejected: %d verification violation(s)", len(vio)),
		"violations": diag.Findings(vio, true),
	})
}

// handleHealthz reports liveness plus the corpus totals ingested so far.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	streams := s.inc.NumStreams()
	events := s.inc.NumEvents()
	instances := s.inc.NumInstances()
	dur := s.inc.TotalDuration()
	s.mu.RUnlock()
	writeJSON(w, s.rec, http.StatusOK, map[string]any{
		"status":      "ok",
		"streams":     streams,
		"events":      events,
		"instances":   instances,
		"duration_us": int64(dur),
	})
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
	out := make([]map[string]any, 0, len(counts))
	for _, sc := range counts {
		out = append(out, map[string]any{"scenario": sc.Name, "instances": sc.Instances})
	}
	writeJSON(w, s.rec, http.StatusOK, out)
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
	writeJSON(w, s.rec, http.StatusOK, impactJSON(scen, m))
}

func impactJSON(scenario string, m impact.Metrics) map[string]any {
	return map[string]any{
		"scenario":     scenario,
		"instances":    m.Instances,
		"dscn_us":      int64(m.Dscn),
		"dwait_us":     int64(m.Dwait),
		"drun_us":      int64(m.Drun),
		"dwaitdist_us": int64(m.Dwaitdist),
		"ia_wait":      m.IAwait(),
		"ia_run":       m.IArun(),
		"ia_opt":       m.IAopt(),
	}
}

// causalityParams reads the two parameters /causality and /awg take: the
// scenario (required) and the mining bound k, which /awg has always
// accepted and still validates, though an unmined graph does not depend
// on it.
func causalityParams(r *http.Request) (scen string, params mining.Params, err error) {
	q := r.URL.Query()
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
	scen, params, err := causalityParams(r)
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
	if tstr := r.URL.Query().Get("top"); tstr != "" {
		t, err := strconv.Atoi(tstr)
		if err != nil || t < 0 {
			httpError(w, s.rec, http.StatusBadRequest, "bad top %q", tstr)
			return
		}
		if t < top {
			top = t
		}
	}
	patterns := make([]map[string]any, 0, top)
	for _, p := range res.Patterns[:top] {
		patterns = append(patterns, map[string]any{
			"wait":        sortedCopy(p.Tuple.Wait),
			"unwait":      sortedCopy(p.Tuple.Unwait),
			"running":     sortedCopy(p.Tuple.Running),
			"cost_us":     int64(p.C),
			"n":           p.N,
			"avg_us":      int64(p.AvgC()),
			"max_exec_us": int64(p.MaxExec),
			"description": p.Describe(),
		})
	}
	writeJSON(w, s.rec, http.StatusOK, map[string]any{
		"scenario":            res.Scenario,
		"tfast_us":            int64(res.Tfast),
		"tslow_us":            int64(res.Tslow),
		"instances":           res.Instances,
		"fast":                res.FastCount,
		"slow":                res.SlowCount,
		"patterns":            patterns,
		"num_contrasts":       res.NumContrasts,
		"slow_only_contrasts": res.SlowOnlyContrasts,
		"ratio_contrasts":     res.RatioContrasts,
		"itc":                 res.ITC,
		"ttc":                 res.TTC,
		"reduced_share":       res.ReducedShare,
		"driver_cost_share":   res.DriverCostShare,
	})
}

// handleAWG renders one scenario's slow-class Aggregated Wait Graph as
// text (default) or DOT: the graph a causality query mines, without the
// mining.
func (s *Server) handleAWG(w http.ResponseWriter, r *http.Request) {
	sp := s.rec.Start("query_awg")
	defer sp.End()
	scen, _, err := causalityParams(r)
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
	if dstr := r.URL.Query().Get("maxdepth"); dstr != "" {
		d, err := strconv.Atoi(dstr)
		if err != nil || d < 1 {
			httpError(w, s.rec, http.StatusBadRequest, "bad maxdepth %q", dstr)
			return
		}
		maxDepth = d
	}
	switch format := r.URL.Query().Get("format"); format {
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
	scenarios := make([]map[string]any, 0, len(counts))
	for _, sc := range counts {
		scenarios = append(scenarios, map[string]any{"scenario": sc.Name, "instances": sc.Instances})
	}
	writeJSON(w, s.rec, http.StatusOK, map[string]any{
		"streams":     streams,
		"events":      events,
		"instances":   instances,
		"duration_us": int64(dur),
		"scenarios":   scenarios,
	})
}

// sortedCopy returns a sorted copy of a signature set, so JSON output
// is deterministic even if the tuple's canonical order ever changes.
func sortedCopy(in []string) []string {
	out := append([]string(nil), in...)
	sort.Strings(out)
	return out
}

// writeJSON writes v as indented JSON (map keys marshal sorted, so
// responses are deterministic). Response-write failures (client went
// away) are counted, not surfaced.
func writeJSON(w http.ResponseWriter, rec obs.Recorder, status int, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		// Only unmarshalable values fail here; every payload above is
		// plain maps and slices, so this is a programming error.
		http.Error(w, "internal marshal failure", http.StatusInternalServerError)
		rec.Add("ingest_response_errors_total", 1)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if _, err := w.Write(append(data, '\n')); err != nil {
		rec.Add("ingest_response_errors_total", 1)
	}
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, rec obs.Recorder, status int, format string, args ...any) {
	rec.Add("ingest_http_errors_total", 1)
	writeJSON(w, rec, status, map[string]any{"error": fmt.Sprintf(format, args...)})
}
