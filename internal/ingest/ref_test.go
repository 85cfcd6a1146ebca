package ingest

// The handlers below are the map-building, encoding/json bodies the
// server wrote before its typed appender (json.go), kept as the
// appender's byte-for-byte oracle: refMux serves them over a Server of
// its own, and TestJSONBodiesMatchReference feeds both servers alike and
// compares every response.

import (
	"encoding/json"
	"errors"
	"fmt"
	"go/token"
	"io"
	"net/http"
	"sort"
	"strconv"

	"tracescope/internal/core"
	"tracescope/internal/diag"
	"tracescope/internal/impact"
	"tracescope/internal/mining"
	"tracescope/internal/obs"
	"tracescope/internal/report"
	"tracescope/internal/trace"
	"tracescope/internal/tracevet"
)

// refMux routes every path the server serves: the reference handler
// where the server writes JSON, the server's own for /metrics.
func refMux(s *Server) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/ingest", s.refHandleIngest)
	mux.HandleFunc("/healthz", s.refHandleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/metrics.json", s.handleMetricsJSON)
	mux.HandleFunc("/scenarios", s.refHandleScenarios)
	mux.HandleFunc("/impact", s.refHandleImpact)
	mux.HandleFunc("/causality", s.refHandleCausality)
	mux.HandleFunc("/awg", s.refHandleAWG)
	mux.HandleFunc("/corpus", s.refHandleCorpus)
	mux.HandleFunc("/diff", s.refHandleDiff)
	return mux
}

// refHandleIngest accepts one TSCP binary stream per POST, appends it to
// the corpus, and folds the decoded stream it holds into the analysis
// state. The response names the assigned stream index.
func (s *Server) refHandleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		refHttpError(w, s.rec, http.StatusMethodNotAllowed, "POST a TSCP binary stream to /ingest")
		return
	}
	sp := s.rec.Start("ingest_request")
	defer sp.End()

	body := io.LimitReader(r.Body, maxStreamBytes+1)
	stream, err := trace.ReadBinary(body)
	if err != nil {
		// A payload that does not even decode still reports through the
		// violation shape, so clients parse one rejection format.
		s.refRejectIngest(w, []diag.Diagnostic{{
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
		s.refRejectIngest(w, vio)
		return
	}
	s.rec.Add("vet_streams_total", 1)

	// Ingestion is deliberately serialized under the write lock: append
	// order defines stream indices, and the fold takes each stream as the
	// index the appender just gave it (see DESIGN.md on the single-writer
	// corpus contract).
	s.mu.Lock()
	idx, err := s.app.Append(stream)
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
		refHttpError(w, s.rec, status, "appending stream: %v", err)
		return
	}

	s.rec.Add("ingest_streams_total", 1)
	s.rec.Add("ingest_instances_total", int64(len(stream.Instances)))
	refWriteJSON(w, s.rec, http.StatusOK, map[string]any{
		"stream":           idx,
		"id":               stream.ID,
		"events":           len(stream.Events),
		"instances":        len(stream.Instances),
		"corpus_streams":   streams,
		"corpus_events":    events,
		"corpus_instances": instances,
	})
}

// refRejectIngest answers one admission-gate rejection: a structured 400
// whose body carries the full violation list in the shared diagnostic
// shape (file/line/analyzer/message/severity).
func (s *Server) refRejectIngest(w http.ResponseWriter, vio []diag.Diagnostic) {
	s.rec.Add("vet_streams_total", 1)
	s.rec.Add("vet_violations_total", int64(len(vio)))
	s.rec.Add("ingest_rejected_total", 1)
	s.rec.Add("ingest_http_errors_total", 1)
	refWriteJSON(w, s.rec, http.StatusBadRequest, map[string]any{
		"error":      fmt.Sprintf("stream rejected: %d verification violation(s)", len(vio)),
		"violations": diag.Findings(vio),
	})
}

// refHandleHealthz reports liveness plus the corpus totals ingested so far.
func (s *Server) refHandleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	streams := s.inc.NumStreams()
	events := s.inc.NumEvents()
	instances := s.inc.NumInstances()
	dur := s.inc.TotalDuration()
	s.mu.RUnlock()
	refWriteJSON(w, s.rec, http.StatusOK, map[string]any{
		"status":      "ok",
		"streams":     streams,
		"events":      events,
		"instances":   instances,
		"duration_us": int64(dur),
	})
}

// refHandleScenarios lists the scenarios ingested so far, sorted by name.
func (s *Server) refHandleScenarios(w http.ResponseWriter, r *http.Request) {
	sp := s.rec.Start("query_scenarios")
	defer sp.End()
	s.mu.RLock()
	counts := s.inc.Scenarios()
	s.mu.RUnlock()
	out := make([]map[string]any, 0, len(counts))
	for _, sc := range counts {
		out = append(out, map[string]any{"scenario": sc.Name, "instances": sc.Instances})
	}
	refWriteJSON(w, s.rec, http.StatusOK, out)
}

// refHandleImpact serves the impact metrics of one scenario (or, with no
// scenario parameter, of every instance).
func (s *Server) refHandleImpact(w http.ResponseWriter, r *http.Request) {
	sp := s.rec.Start("query_impact")
	defer sp.End()
	scen := r.URL.Query().Get("scenario")
	s.mu.RLock()
	m := s.inc.Impact(scen)
	s.mu.RUnlock()
	refWriteJSON(w, s.rec, http.StatusOK, refImpactJSON(scen, m))
}

func refImpactJSON(scenario string, m impact.Metrics) map[string]any {
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

// refHandleCausality serves one scenario's ranked contrast patterns and
// coverage aggregates.
func (s *Server) refHandleCausality(w http.ResponseWriter, r *http.Request) {
	sp := s.rec.Start("query_causality")
	defer sp.End()
	scen, params, err := causalityParams(r.URL.Query())
	if err != nil {
		refHttpError(w, s.rec, http.StatusBadRequest, "%v", err)
		return
	}
	s.mu.RLock()
	res, err := s.inc.Causality(scen, params)
	s.mu.RUnlock()
	if err != nil {
		refHttpError(w, s.rec, http.StatusNotFound, "%v", err)
		return
	}
	top := len(res.Patterns)
	if tstr := r.URL.Query().Get("top"); tstr != "" {
		t, err := strconv.Atoi(tstr)
		if err != nil || t < 0 {
			refHttpError(w, s.rec, http.StatusBadRequest, "bad top %q", tstr)
			return
		}
		if t < top {
			top = t
		}
	}
	patterns := make([]map[string]any, 0, top)
	for _, p := range res.Patterns[:top] {
		patterns = append(patterns, map[string]any{
			"wait":        refSortedCopy(p.Tuple.Wait),
			"unwait":      refSortedCopy(p.Tuple.Unwait),
			"running":     refSortedCopy(p.Tuple.Running),
			"cost_us":     int64(p.C),
			"n":           p.N,
			"avg_us":      int64(p.AvgC()),
			"max_exec_us": int64(p.MaxExec),
			"description": p.Describe(),
		})
	}
	refWriteJSON(w, s.rec, http.StatusOK, map[string]any{
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

// refHandleAWG renders one scenario's slow-class Aggregated Wait Graph as
// text (default) or DOT: the graph a causality query mines, without the
// mining.
func (s *Server) refHandleAWG(w http.ResponseWriter, r *http.Request) {
	sp := s.rec.Start("query_awg")
	defer sp.End()
	scen, _, err := causalityParams(r.URL.Query())
	if err != nil {
		refHttpError(w, s.rec, http.StatusBadRequest, "%v", err)
		return
	}
	s.mu.RLock()
	slowAWG, err := s.inc.SlowAWG(scen)
	s.mu.RUnlock()
	if err != nil {
		refHttpError(w, s.rec, http.StatusNotFound, "%v", err)
		return
	}
	if slowAWG == nil {
		refHttpError(w, s.rec, http.StatusNotFound, "scenario %q has no slow class yet", scen)
		return
	}
	maxDepth := 64
	if dstr := r.URL.Query().Get("maxdepth"); dstr != "" {
		d, err := strconv.Atoi(dstr)
		if err != nil || d < 1 {
			refHttpError(w, s.rec, http.StatusBadRequest, "bad maxdepth %q", dstr)
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
		refHttpError(w, s.rec, http.StatusBadRequest, "bad format %q (want text or dot)", format)
		return
	}
	if err != nil {
		s.rec.Add("ingest_response_errors_total", 1)
	}
}

// refHandleDiff serves the corpus-vs-corpus regression report: a snapshot
// of the live incremental state (the candidate) diffed against a
// baseline corpus directory profiled on demand with the server's own
// configuration. GET /diff?baseline=DIR [&top=N] [&k=K]
// [&format=json|md]. The baseline profiling and the diff itself run
// outside the lock — only the snapshot is taken under it, so ingestion
// never stalls behind a diff. With default parameters the JSON body is
// byte-identical to `traceanalyze -diff BASELINE CORPUS -format json`
// over the same pair.
func (s *Server) refHandleDiff(w http.ResponseWriter, r *http.Request) {
	sp := s.rec.Start("query_diff")
	defer sp.End()
	q := r.URL.Query()
	dir := q.Get("baseline")
	if dir == "" {
		refHttpError(w, s.rec, http.StatusBadRequest, "baseline parameter is required (a corpus directory)")
		return
	}
	format := q.Get("format")
	if format == "" {
		format = "json"
	}
	if format != "json" && format != "md" {
		refHttpError(w, s.rec, http.StatusBadRequest, "bad format %q (want json or md)", format)
		return
	}
	top := 10
	if tstr := q.Get("top"); tstr != "" {
		t, err := strconv.Atoi(tstr)
		if err != nil {
			refHttpError(w, s.rec, http.StatusBadRequest, "bad top %q", tstr)
			return
		}
		top = t
	}
	var params mining.Params
	if kstr := q.Get("k"); kstr != "" {
		k, err := strconv.Atoi(kstr)
		if err != nil || k < 1 {
			refHttpError(w, s.rec, http.StatusBadRequest, "bad k %q", kstr)
			return
		}
		params.K = k
	}

	baseSrc, err := trace.OpenDir(dir)
	if err != nil {
		refHttpError(w, s.rec, http.StatusNotFound, "opening baseline: %v", err)
		return
	}
	base := core.NewIncremental(core.IncrementalConfig{
		Filter:     s.cfg.Filter,
		Thresholds: s.cfg.Thresholds,
		Workers:    s.cfg.Workers,
		Recorder:   s.rec,
	})
	if err := base.IngestSource(baseSrc); err != nil {
		refHttpError(w, s.rec, http.StatusInternalServerError, "profiling baseline: %v", err)
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

// refHandleCorpus reports the on-disk corpus shape: stream totals plus the
// per-scenario instance counts.
func (s *Server) refHandleCorpus(w http.ResponseWriter, r *http.Request) {
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
	refWriteJSON(w, s.rec, http.StatusOK, map[string]any{
		"streams":     streams,
		"events":      events,
		"instances":   instances,
		"duration_us": int64(dur),
		"scenarios":   scenarios,
	})
}

// refSortedCopy returns a sorted copy of a signature set, so JSON output
// is deterministic even if the tuple's canonical order ever changes.
func refSortedCopy(in []string) []string {
	out := append([]string(nil), in...)
	sort.Strings(out)
	return out
}

// refWriteJSON writes v as indented JSON (map keys marshal sorted, so
// responses are deterministic). Response-write failures (client went
// away) are counted, not surfaced.
func refWriteJSON(w http.ResponseWriter, rec obs.Recorder, status int, v any) {
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

// refHttpError writes a JSON error body with the given status.
func refHttpError(w http.ResponseWriter, rec obs.Recorder, status int, format string, args ...any) {
	rec.Add("ingest_http_errors_total", 1)
	refWriteJSON(w, rec, status, map[string]any{"error": fmt.Sprintf(format, args...)})
}
