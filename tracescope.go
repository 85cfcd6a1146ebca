// Package tracescope is a trace-based performance-analysis library
// reproducing "Comprehending Performance from Real-World Execution
// Traces: A Device-Driver Case" (Yu, Han, Zhang, Xie — ASPLOS 2014).
//
// The library has two halves:
//
//   - A workload substrate: a discrete-event kernel/driver-stack
//     simulator that emits ETW-shaped trace streams (four event types:
//     running samples, wait, unwait, hardware service) for configurable
//     fleets of machines running the paper's application scenarios.
//
//   - The paper's contribution: impact analysis (Wait Graphs; IArun,
//     IAwait, IAopt) and causality analysis (fast/slow contrast classes,
//     Aggregated Wait Graphs, Signature Set Tuple contrast mining,
//     ranking, and the evaluation's coverage metrics).
//
// Quick start:
//
//	corpus := tracescope.Generate(tracescope.GenerateConfig{Seed: 1, Streams: 20})
//	an := tracescope.NewAnalyzer(corpus)
//	m := an.Impact(tracescope.AllDrivers(), "")
//	fmt.Println(m) // IAwait / IArun / IAopt over the whole corpus
//
//	tf, ts, _ := tracescope.Thresholds(tracescope.BrowserTabCreate)
//	res, _ := an.Causality(tracescope.CausalityConfig{
//		Scenario: tracescope.BrowserTabCreate, Tfast: tf, Tslow: ts,
//	})
//	for _, p := range res.Patterns[:3] {
//		fmt.Println(p.AvgC(), p.Tuple)
//	}
//
// An Analyzer reads the corpus once. The developer thresholds are given
// up front (NewAnalyzer defaults to the scenario catalogue's;
// WithThresholds replaces them), the first analysis call folds every
// stream — one Wait Graph per instance, feeding the impact metrics and
// each scenario's fast/slow class graphs — and Impact and every
// Causality call that uses those thresholds are answered from the folded
// state (a repeated call from the scenario's memoised answer, not mined
// again). A Causality call may still carry thresholds of its own: that
// is a different configuration, and costs one more sweep of the corpus
// (as does a different component filter). Between calls the Analyzer
// keeps the fold's aggregates — the impact sums and the class graphs —
// and the answers asked of them, never a decoded stream. While it folds, each worker decodes, indexes
// and graphs every stream it is given in one working set it owns and
// reuses, so a pass allocates for its largest stream rather than for
// every stream; a Wait Graph handed to a callback (LocatePattern's and
// ImpactByComponent's walks) is valid until that stream's last.
package tracescope

import (
	"io"

	"tracescope/internal/awg"
	"tracescope/internal/baseline"
	"tracescope/internal/core"
	"tracescope/internal/impact"
	"tracescope/internal/mining"
	"tracescope/internal/obs"
	"tracescope/internal/scenario"
	"tracescope/internal/sigset"
	"tracescope/internal/trace"
)

// Trace-schema types (§2.1 of the paper).
type (
	// Corpus is a collection of trace streams.
	Corpus = trace.Corpus
	// Stream is one trace stream: events, interned callstacks, and
	// scenario-instance records.
	Stream = trace.Stream
	// Event is a single tracing event.
	Event = trace.Event
	// Instance is a scenario-instance record ⟨TS, S, TID, t0, t1⟩.
	Instance = trace.Instance
	// InstanceRef locates an instance within a corpus.
	InstanceRef = trace.InstanceRef
	// Duration is a time span in microseconds.
	Duration = trace.Duration
	// Time is a timestamp in microseconds from stream start.
	Time = trace.Time
	// ComponentFilter selects components by module-name patterns.
	ComponentFilter = trace.ComponentFilter
)

// Corpus-source types: the out-of-core access seam. A *Corpus satisfies
// Source, so every analysis entry point accepts either.
type (
	// Source is stream/instance metadata plus on-demand stream fetch —
	// the seam the analysis layers run over.
	Source = trace.Source
	// StreamMeta is per-stream metadata available without decoding.
	StreamMeta = trace.StreamMeta
	// DirSource is a lazy directory-backed corpus: metadata from the
	// corpus.index, streams decoded on demand.
	DirSource = trace.DirSource
	// CachedSource adds a bounded LRU of decoded streams over a Source.
	CachedSource = trace.CachedSource
	// SourceCacheStats reports a CachedSource's counters and its
	// decoded-stream high-water mark.
	SourceCacheStats = trace.SourceCacheStats
)

// Analysis types (§3–§4).
type (
	// Analyzer runs impact and causality analyses over a corpus, all
	// answered from one fold of it. Over lazy sources a fold that cannot
	// fetch a stream is not kept: Causality returns the error, Impact
	// returns zero metrics, Analyzer.Err reports it, and the next call
	// folds again.
	Analyzer = core.Analyzer
	// AnalyzerOption configures NewAnalyzer (WithWorkers, WithRecorder,
	// WithThresholds).
	AnalyzerOption = core.Option
	// ImpactMetrics carries Dscn/Dwait/Drun/Dwaitdist and the derived
	// IArun, IAwait, IAopt.
	ImpactMetrics = impact.Metrics
	// CausalityConfig parameterises a causality analysis.
	CausalityConfig = core.CausalityConfig
	// CausalityResult carries ranked contrast patterns and the
	// evaluation's aggregates. Results are memoised and shared between
	// callers that ask the same question: treat them as read-only.
	CausalityResult = core.CausalityResult
	// Pattern is a ranked contrast pattern.
	Pattern = mining.Pattern
	// Tuple is a Signature Set Tuple.
	Tuple = sigset.Tuple
	// AWG is an Aggregated Wait Graph.
	AWG = awg.Graph
)

// Observability types: the recorder seam every pipeline layer reports
// into (engine shards, causality phases, Wait-Graph builds, stream
// decodes, cache counters). Recording is strictly opt-in — without
// WithRecorder the pipeline runs with a no-op recorder and zero
// overhead beyond an interface call.
type (
	// Recorder receives typed observability events: counters (Add),
	// value observations (Observe), timed spans (Start), and progress
	// reports (Progress).
	Recorder = obs.Recorder
	// RecorderSpan is an in-flight timed region; End records it.
	RecorderSpan = obs.Span
	// MetricsClock supplies nanosecond timestamps for span durations.
	// A nil clock records zero durations, keeping snapshots
	// deterministic; CLIs may inject a wall clock.
	MetricsClock = obs.Clock
	// MemRecorder aggregates events in memory: counters, latency
	// histograms over fixed decade boundaries (1µs to 10s), and progress
	// state, exportable as a deterministic snapshot.
	MemRecorder = obs.MemRecorder
	// MemRecorderOption configures NewMemRecorder; WithMetricsClock is
	// the one option.
	MemRecorderOption = obs.MemOption
	// MetricsSnapshot is a point-in-time export of a MemRecorder with
	// deterministic ordering; it marshals to indented JSON (WriteJSON)
	// or Prometheus text exposition format (WritePrometheus).
	MetricsSnapshot = obs.Snapshot
	// ProgressPrinter is a Recorder that renders throttled progress
	// lines for CLIs and ignores all other events.
	ProgressPrinter = obs.ProgressPrinter
)

// NopRecorder is the no-op recorder: every event is discarded. It is
// what the pipeline uses when no recorder is configured.
var NopRecorder = obs.Nop

// NewMemRecorder builds an in-memory recorder. With no options it has
// no clock — span durations record as zero and snapshots are
// byte-identical across identical runs. Inject a wall clock (e.g.
// WithMetricsClock(func() int64 { return time.Now().UnixNano() })) to
// measure real latencies at the cost of run-to-run snapshot variance.
func NewMemRecorder(opts ...MemRecorderOption) *MemRecorder {
	return obs.NewMemRecorder(opts...)
}

// WithMetricsClock sets the MemRecorder's span clock (nanoseconds).
func WithMetricsClock(c MetricsClock) MemRecorderOption { return obs.WithClock(c) }

// NewProgressPrinter builds a Recorder that prints throttled progress
// lines to w, at most one per phase per minIntervalNS nanoseconds
// (first and final reports always print). A nil clock prints only
// first and final reports.
func NewProgressPrinter(w io.Writer, clock MetricsClock, minIntervalNS int64) *ProgressPrinter {
	return obs.NewProgressPrinter(w, clock, minIntervalNS)
}

// TeeRecorders fans events out to every non-nil recorder — e.g. a
// MemRecorder for the final snapshot plus a ProgressPrinter for live
// output.
func TeeRecorders(recorders ...Recorder) Recorder { return obs.Tee(recorders...) }

// Workload-generation types.
type (
	// GenerateConfig parameterises corpus generation.
	GenerateConfig = scenario.Config
)

// Analyst-workflow extensions.
type (
	// PatternOccurrence is a concrete instance exhibiting a pattern.
	PatternOccurrence = core.PatternOccurrence
	// ComponentImpact is one module's share in a per-driver breakdown.
	ComponentImpact = core.ComponentImpact
)

// PatternDiff classifies pattern movement between two analyses
// (before/after a fix); PatternChange pairs one pattern's observations.
type (
	PatternDiff   = core.PatternDiff
	PatternChange = core.PatternChange
)

// DiffPatterns compares the discovered patterns of two causality analyses
// — typically before and after a change — and classifies them as
// introduced, resolved, regressed, improved, or stable.
func DiffPatterns(before, after *CausalityResult) PatternDiff {
	return core.DiffPatterns(before, after)
}

// Baseline types (§6 comparisons).
type (
	// Profile is a gprof-style call-graph CPU profile.
	Profile = baseline.Profile
	// ContentionReport is a per-lock contention summary.
	ContentionReport = baseline.ContentionReport
	// StackMineResult carries costly callstack patterns (the StackMine
	// baseline of §6).
	StackMineResult = baseline.StackMineResult
)

// The eight selected scenarios of the paper's evaluation (Table 1).
const (
	AppAccessControl   = scenario.AppAccessControl
	AppNonResponsive   = scenario.AppNonResponsive
	BrowserFrameCreate = scenario.BrowserFrameCreate
	BrowserTabClose    = scenario.BrowserTabClose
	BrowserTabCreate   = scenario.BrowserTabCreate
	BrowserTabSwitch   = scenario.BrowserTabSwitch
	MenuDisplay        = scenario.MenuDisplay
	WebPageNavigation  = scenario.WebPageNavigation
)

// Millisecond and Second are Duration units.
const (
	Millisecond = trace.Millisecond
	Second      = trace.Second
)

// Generate produces a corpus of simulated ETW-shaped trace streams for
// the configured fleet. Equal seeds yield identical corpora.
func Generate(cfg GenerateConfig) *Corpus { return scenario.Generate(cfg) }

// GenerateCorpusStream produces stream index of Generate(cfg)'s corpus
// on its own — byte-identical to Generate(cfg).Streams[index] without
// materialising the rest of the corpus.
func GenerateCorpusStream(cfg GenerateConfig, index int) *Stream {
	return scenario.GenerateStream(cfg, index)
}

// GenerateEachStream generates the corpus stream by stream, delivering
// each to fn in index order with at most cfg.Parallelism streams in
// flight. This is the paper-scale path: tracegen -paper appends each
// stream to a directory corpus and drops it, so ~19.5k streams never
// coexist in memory. A non-nil error from fn stops generation.
func GenerateEachStream(cfg GenerateConfig, fn func(index int, s *Stream) error) error {
	return scenario.GenerateEach(cfg, fn)
}

// MotivatingCase deterministically replays the three-driver
// cost-propagation case of the paper's §2.2 (Figure 1) as a single
// stream.
func MotivatingCase() *Stream { return scenario.MotivatingCase() }

// NewAnalyzer prepares impact and causality analyses over a corpus
// source. Pass a *Corpus for in-memory analysis or a (usually cached)
// *DirSource for out-of-core analysis; results are identical. Nothing is
// decoded until the first analysis call, which folds the corpus once.
// Options configure scheduling, classification and observability:
//
//	an := tracescope.NewAnalyzer(src,
//		tracescope.WithWorkers(8),
//		tracescope.WithRecorder(rec))
//
// With no options the analyzer uses GOMAXPROCS workers, classifies
// instances with the scenario catalogue's developer thresholds (as Diff
// does; WithThresholds replaces them) and records nothing. Results are
// bit-for-bit identical at any worker count. Over lazy sources, check
// an.Err() after Impact, LocatePattern and ImpactByComponent (Causality
// returns the error directly): a call that cannot fetch a stream yields
// zero metrics or nil, never an answer over part of the corpus.
func NewAnalyzer(src Source, options ...AnalyzerOption) *Analyzer {
	opts := make([]AnalyzerOption, 0, len(options)+1)
	opts = append(opts, WithThresholds(scenario.Thresholds))
	opts = append(opts, options...)
	return core.NewAnalyzer(src, opts...)
}

// WithWorkers bounds the worker pool an analysis or diff folds its
// corpus on: each worker pulls whole streams from one shared cursor into
// one partial state of its own, and the partials are merged at the end.
// Zero means GOMAXPROCS; one folds inline. Results are bit-for-bit
// identical at any setting — the merge is order-insensitive, so which
// worker folded which stream cannot show.
func WithWorkers(n int) CommonOption { return core.WithWorkers(n) }

// WithRecorder routes the analysis pipeline's observability events —
// engine worker spans and per-stream progress, causality phase spans, Wait-Graph
// build spans, stream-decode latency, and cache counters — to r. When
// the source is instrumentable (*CachedSource, *DirSource) the recorder
// is wired into it too, so one registry holds the whole pipeline. A nil
// recorder is the no-op default. Accepted by NewAnalyzer and Diff
// alike.
func WithRecorder(r Recorder) CommonOption { return core.WithRecorder(r) }

// Corpus-vs-corpus diff types: the regression-analysis entry point.
type (
	// DiffOption configures a Diff run (WithFilter, WithThresholds,
	// WithMiningParams, WithTopEdges, plus the shared
	// WithWorkers/WithRecorder).
	DiffOption = core.DiffOption
	// CommonOption is accepted by both NewAnalyzer and Diff — what
	// WithWorkers, WithRecorder and WithThresholds return.
	CommonOption = core.CommonOption
	// DiffResult is the outcome of a corpus-vs-corpus causality diff:
	// the scenario alignment table, per-scenario edge and pattern
	// deltas, and the global regression/improvement rankings.
	DiffResult = core.DiffResult
	// ScenarioDiff is the full A/B comparison of one scenario present
	// in both corpora.
	ScenarioDiff = core.ScenarioDiff
	// ScenarioSide is one corpus's view of one scenario.
	ScenarioSide = core.ScenarioSide
	// CorpusShape summarises one side of a diff.
	CorpusShape = core.CorpusShape
	// EdgeDelta is one Aggregated-Wait-Graph edge's cost movement
	// between the two corpora, with resolved-cost attribution down the
	// wait chain (OwnDeltaC).
	EdgeDelta = awg.EdgeDelta
	// RankedEdge is one globally ranked edge delta tagged with its
	// scenario.
	RankedEdge = core.RankedEdge
	// MiningParams bounds the contrast-mining step (WithMiningParams).
	MiningParams = mining.Params
	// ScenarioInstanceCount pairs a scenario name with its instance
	// count (the unmatched rows of a diff's alignment table).
	ScenarioInstanceCount = trace.ScenarioCount
)

// Diff runs the corpus-vs-corpus causality diff: both corpora are
// profiled out-of-core (each stream decoded once, in parallel,
// bit-for-bit deterministic at any worker count), scenarios
// are aligned by name, and each matched scenario's aggregated wait
// graphs, impact metrics, and contrast patterns are compared. The
// result ranks what got slower — and through which wait chain — across
// the whole fleet.
//
//	res, err := tracescope.Diff(before, after,
//		tracescope.WithWorkers(8),
//		tracescope.WithTopEdges(20))
//
// By default the scenario catalogue's developer thresholds classify
// instances on both sides (so within-corpus pattern movement is
// reported too); WithThresholds overrides that, and WithThresholds(nil)
// disables classification entirely.
func Diff(base, cand Source, options ...DiffOption) (*DiffResult, error) {
	opts := make([]DiffOption, 0, len(options)+1)
	opts = append(opts, WithThresholds(scenario.Thresholds))
	opts = append(opts, options...)
	return core.Diff(base, cand, opts...)
}

// WithFilter names the components under diff analysis. Nil (the
// default) means all drivers.
func WithFilter(f *ComponentFilter) DiffOption { return core.WithFilter(f) }

// WithThresholds supplies the per-scenario fast/slow developer
// thresholds instances are classified with as the corpus is folded — by
// an Analyzer (every Causality call that uses them is answered from the
// one fold) and on both sides of a Diff. Both default to the scenario
// catalogue's thresholds; pass nil to class nothing up front.
func WithThresholds(fn func(scenario string) (tfast, tslow Duration, ok bool)) CommonOption {
	return core.WithThresholds(fn)
}

// WithMiningParams bounds the diff's contrast-mining step; zero fields
// take the paper's defaults.
func WithMiningParams(p MiningParams) DiffOption { return core.WithMiningParams(p) }

// WithTopEdges bounds the globally ranked regression and improvement
// lists of the DiffResult. Zero takes the default (10); negative means
// unbounded.
func WithTopEdges(n int) DiffOption { return core.WithTopEdges(n) }

// AllDrivers returns the component filter the paper's evaluation uses:
// every module matching "*.sys".
func AllDrivers() *ComponentFilter { return trace.AllDrivers() }

// NewComponentFilter builds a filter from module-name patterns
// (wildcards allowed, e.g. "net.sys", "*.sys").
func NewComponentFilter(patterns ...string) *ComponentFilter {
	return trace.NewComponentFilter(patterns...)
}

// SelectedScenarios lists the eight evaluation scenarios in Table 1
// order.
func SelectedScenarios() []string { return scenario.Selected() }

// Thresholds returns the developer thresholds (Tfast, Tslow) of a named
// scenario.
func Thresholds(name string) (tfast, tslow Duration, ok bool) {
	return scenario.Thresholds(name)
}

// WriteCorpusDir persists a corpus as binary stream files plus an index.
func WriteCorpusDir(c *Corpus, dir string) error { return c.WriteDir(dir) }

// ReadCorpusDir loads a corpus written with WriteCorpusDir eagerly into
// memory. For out-of-core access use OpenCorpusDir.
func ReadCorpusDir(dir string) (*Corpus, error) { return trace.ReadDir(dir) }

// OpenCorpusDir opens a corpus directory lazily: stream and instance
// metadata come from the corpus.index, and streams are decoded only when
// an analysis touches them — by the analysis sweeps into buffers each
// worker owns and reuses, so decoded-stream memory during analysis is
// one stream per worker.
func OpenCorpusDir(dir string) (*DirSource, error) { return trace.OpenDir(dir) }

// CorpusStats summarises a corpus directory's on-disk footprint:
// stream/instance/event counts, the frame and stack counts of the intern
// table the index defines, and per-block storage accounting.
type CorpusStats = trace.DirStats

// CollectCorpusStats skims a corpus directory for CorpusStats without
// decoding any event payloads, so it runs at I/O speed even on
// paper-scale corpora (tracedump -stats renders it).
func CollectCorpusStats(dir string) (CorpusStats, error) { return trace.CollectDirStats(dir) }

// NewCachedSource wraps a source with a bounded LRU of at most limit
// decoded streams (limit <= 0 means unbounded). Safe for concurrent use
// by the analysis worker pool. The LRU is the only thing that keeps a
// decoded stream past the walk that fetched it, and only Stream callers
// fill it: an Analyzer's fold and its LocatePattern and
// ImpactByComponent each decode, use and drop, are served a stream the
// LRU already holds, and otherwise count as a miss and insert nothing.
func NewCachedSource(src Source, limit int) *CachedSource {
	return trace.NewCachedSource(src, limit)
}

// Continuous-ingestion types: the incremental layer behind the
// cmd/tracescoped daemon. The contract throughout is that ingesting
// streams in any arrival order yields bit-for-bit the same results as a
// batch run over the same streams (DESIGN.md §9).
type (
	// CorpusAppender grows a directory corpus crash-safely: each stream
	// file is fully written before its index record is appended.
	CorpusAppender = trace.Appender
	// Incremental accumulates resumable analysis state stream by
	// stream; queries never consume it.
	Incremental = core.Incremental
	// IncrementalConfig parameterises NewIncremental.
	IncrementalConfig = core.IncrementalConfig
)

// OpenCorpusAppender opens dir for appending streams, creating it if
// needed (the first append writes the index header). The appender
// assumes exclusive ownership of the directory: once another writer has
// appended, it refuses to append until re-opened.
func OpenCorpusAppender(dir string) (*CorpusAppender, error) {
	return trace.OpenAppender(dir)
}

// NewIncremental builds empty incremental analysis state. Feed it with
// Ingest (one stream at a time, e.g. as uploads arrive) or IngestSource
// (parallel warm-up over an existing corpus); query it at any point
// with Impact and Causality. Set IncrementalConfig.Thresholds — the
// developer thresholds function, typically tracescope.Thresholds — to
// classify instances into contrast classes at ingest time; with a nil
// Thresholds the state answers impact queries only.
func NewIncremental(cfg IncrementalConfig) *Incremental {
	return core.NewIncremental(cfg)
}

// CallGraphProfile computes a gprof-style CPU profile of the source: the
// call-dependency baseline of §6 (sees CPU only, never waiting). Streams
// are decoded one at a time, so out-of-core sources run within bounded
// memory; the error is non-nil only when a lazy stream fetch fails.
func CallGraphProfile(src Source) (*Profile, error) { return baseline.CallGraphProfile(src) }

// LockContention computes a per-lock contention report: the
// single-lock baseline of §6 (sees each lock in isolation, never
// chains). Streams are decoded one at a time; the error is non-nil only
// when a lazy stream fetch fails.
func LockContention(src Source, filter *ComponentFilter) (*ContentionReport, error) {
	return baseline.LockContention(src, filter)
}

// MineStacks runs the StackMine-style costly-callstack baseline (§6):
// within-thread wait patterns by shared callstack prefix. Streams are
// decoded one at a time; the error is non-nil only when a lazy stream
// fetch fails.
func MineStacks(src Source, filter *ComponentFilter, minSupport int64) (*StackMineResult, error) {
	return baseline.MineStacks(src, filter, minSupport)
}
