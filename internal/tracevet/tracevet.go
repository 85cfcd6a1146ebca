// Package tracevet is the corpus/trace semantic verifier: a rule engine
// over trace corpora that checks what the decoders deliberately do not.
// The decode layer (one decoder for TSCP uploads, trace.ReadBinary and
// trace.ReadUpload, and for TSC4 stream files) rejects structural
// corruption — truncated varints, out-of-range table references — but
// trusts every byte past that: nothing verifies that a
// structurally valid stream is *semantically* well-formed. The paper's
// pipeline ran over 19,500 real-world traces, data that arrives
// malformed, truncated, and adversarial; a single bad fleet member can
// silently poison impact and causality results. tracevet closes that
// gap with three rule families:
//
//   - per-stream structural invariants: monotone non-negative
//     timestamps, wait/unwait pairing with restored durations,
//     non-negative costs, valid thread attribution, instance windows
//     inside stream bounds, stack/frame references resolving
//     (rules time-monotone, event-shape, wait-pair, stack-ref,
//     instance-window, index-meta);
//
//   - corpus-level invariants: index sequence continuity, duplicate
//     stream IDs, orphaned/dangling corpus.intern entries, and
//     truncated-tail classification — distinguishing the recoverable
//     leftovers of an interrupted append (the Appender lands intern
//     records, then the stream file, then the index record, so a crash
//     leaves at worst orphan artifacts and a torn final index record)
//     from corruption of committed data (rules index-seq, stream-dup,
//     stream-decode, intern-ref, intern-orphan, tail-truncated);
//
//   - semantic conservation cross-checks against the analysis layer:
//     per-instance Dwaitdist bounded by wall time, Dwaitdist <= Dwait
//     (equivalently IAopt <= IAwait), and AWG aggregation cost
//     conservation — a per-stream sharded aggregation merged in order
//     must equal the sequential aggregate bit for bit (rules
//     impact-conserve, awg-conserve).
//
// Findings are diag.Diagnostics: the position's Filename is the corpus
// artifact (corpus.index, a stream file) and Line a 1-based record or
// event ordinal, so the human, JSON, and SARIF writers shared with
// tracelint work unchanged. Verification parallelises per stream via
// engine.Fold and merges findings in stream order, so the report is
// byte-stable at any worker count.
package tracevet

import (
	"fmt"
	"sort"
	"strings"

	"tracescope/internal/diag"
	"tracescope/internal/obs"
	"tracescope/internal/trace"
)

// Rule is one named check, for -rules filtering and SARIF rule tables.
type Rule struct {
	Name string
	Doc  string
}

// Rules returns the full rule set in a fixed order.
func Rules() []Rule {
	return []Rule{
		{"time-monotone", "event timestamps are non-negative and non-decreasing"},
		{"event-shape", "event types, costs, and thread attribution are well-formed"},
		{"wait-pair", "every completed wait has a matching unwait at its end, and every unwait wakes a wait"},
		{"stack-ref", "event stack and frame references resolve"},
		{"instance-window", "scenario-instance windows are well-formed and begin inside the stream's time span"},
		{"index-meta", "corpus.index metadata matches the decoded stream"},
		{"index-seq", "corpus.index parses with continuous sequence numbers"},
		{"stream-dup", "stream IDs are unique across the corpus"},
		{"stream-decode", "every indexed stream file exists and decodes"},
		{"intern-ref", "stream files reference existing corpus.intern entries"},
		{"intern-orphan", "corpus.intern entries are referenced by at least one stream"},
		{"tail-truncated", "truncated tails classify as a recoverable interrupted append"},
		{"impact-conserve", "impact metrics conserve: Dwaitdist <= Dwait and per-instance Dwaitdist <= wall time"},
		{"awg-conserve", "sharded AWG aggregation merges to the sequential aggregate"},
	}
}

// RuleDocs returns the name → doc map for the SARIF rule table.
func RuleDocs() map[string]string {
	out := make(map[string]string, len(Rules()))
	for _, r := range Rules() {
		out[r.Name] = r.Doc
	}
	return out
}

// ParseRules parses a comma-separated rule filter, rejecting unknown
// names. Empty input selects every rule (a nil set).
func ParseRules(csv string) (map[string]bool, error) {
	if strings.TrimSpace(csv) == "" {
		return nil, nil
	}
	known := RuleDocs()
	out := make(map[string]bool)
	for _, name := range strings.Split(csv, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if _, ok := known[name]; !ok {
			names := make([]string, 0, len(known))
			for n := range known {
				names = append(names, n)
			}
			sort.Strings(names)
			return nil, fmt.Errorf("unknown rule %q (known: %s)", name, strings.Join(names, ", "))
		}
		out[name] = true
	}
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}

// Options configures a verification run.
type Options struct {
	// Workers bounds the per-stream parallelism (0 = GOMAXPROCS). The
	// report is byte-identical at any value.
	Workers int
	// Rules selects the rules to run by name; nil or empty runs all.
	Rules map[string]bool
	// Semantic enables the analysis-layer conservation cross-checks
	// (impact-conserve, awg-conserve). They decode every stream and
	// build wait graphs, so callers on a hot path leave this off.
	Semantic bool
	// Recorder receives the vet_streams_total / vet_violations_total
	// counters and the engine's vet_shard spans, one per worker. Nil is
	// allowed.
	Recorder obs.Recorder
}

func (o Options) enabled(rule string) bool {
	return len(o.Rules) == 0 || o.Rules[rule]
}

// Report is the outcome of one verification run.
type Report struct {
	// Diags holds every finding in deterministic (diag.Sort) order.
	Diags []diag.Diagnostic
	// Streams is the number of streams examined.
	Streams int
	// Recoverable reports that the run found problems and every one of
	// them is consistent with an interrupted append — orphan artifacts
	// and a torn final record — rather than corruption of committed
	// data. Truncating the index to TailOffset bytes (when set) and
	// re-appending recovers the corpus.
	Recoverable bool
	// TailOffset is the byte length of the longest valid corpus.index
	// prefix when the index carries a torn tail, -1 otherwise.
	TailOffset int64
}

// Findings returns the number of findings of any severity.
func (r *Report) Findings() int { return len(r.Diags) }

// finishReport sorts, classifies recoverability, and records metrics.
func finishReport(diags []diag.Diagnostic, streams int, tailOffset int64, rec obs.Recorder) *Report {
	diag.Sort(diags)
	recoverable := len(diags) > 0
	for _, d := range diags {
		if d.Severity != diag.SevNote {
			recoverable = false
			break
		}
	}
	rec = obs.OrNop(rec)
	rec.Add("vet_streams_total", int64(streams))
	rec.Add("vet_violations_total", int64(len(diags)))
	return &Report{Diags: diags, Streams: streams, Recoverable: recoverable, TailOffset: tailOffset}
}

// VetStream runs the per-stream structural rules over one stream.
// artifact names the stream's backing artifact in finding positions
// (Line is the 1-based event or instance ordinal). The ingest admission
// gate calls this on every POST /ingest payload before it is appended.
func VetStream(s *trace.Stream, artifact string, opts Options) []diag.Diagnostic {
	diags := vetStream(s, artifact, opts)
	diag.Sort(diags)
	return diags
}

// hasErrors reports whether any finding is error-severity. The semantic
// phase runs analyses over the corpus and is skipped when structural
// errors exist — analyzing known-bad data proves nothing.
func hasErrors(diags []diag.Diagnostic) bool {
	for _, d := range diags {
		if d.Severity == diag.SevError {
			return true
		}
	}
	return false
}

// vd builds one finding. Line ordinals are 1-based; the column is
// unused (0) — messages carry the precise event/instance/record index.
func vd(artifact string, line int, rule string, sev diag.Severity, format string, args ...interface{}) diag.Diagnostic {
	return diag.Diagnostic{
		Pos:      positionAt(artifact, line),
		Analyzer: rule,
		Severity: sev,
		Message:  fmt.Sprintf(format, args...),
	}
}
