package core

import (
	"tracescope/internal/mining"
	"tracescope/internal/obs"
	"tracescope/internal/trace"
)

// Option configures an Analyzer at construction. Options compose left to
// right: NewAnalyzer(src, WithWorkers(8), WithRecorder(rec)).
type Option interface {
	applyAnalyzer(*Options)
}

// DiffOption configures a corpus-vs-corpus Diff run. Scheduling options
// (WithWorkers, WithRecorder) satisfy both Option and DiffOption, so one
// option value tunes both entry points.
type DiffOption interface {
	applyDiff(*DiffOptions)
}

// CommonOption is an option accepted by both NewAnalyzer and Diff —
// what WithWorkers, WithRecorder and WithThresholds return.
type CommonOption interface {
	Option
	DiffOption
}

// commonOption mutates the fields shared by both entry points: applied
// directly for an Analyzer, and to the embedded Options for a Diff.
type commonOption func(*Options)

func (f commonOption) applyAnalyzer(o *Options) { f(o) }
func (f commonOption) applyDiff(d *DiffOptions) { f(&d.Options) }

// diffOption mutates diff-only configuration.
type diffOption func(*DiffOptions)

func (f diffOption) applyDiff(d *DiffOptions) { f(d) }

// WithWorkers bounds the fold's worker pool. Zero means GOMAXPROCS; one
// folds inline. Results are bit-for-bit identical at any setting (see
// Options.Workers).
func WithWorkers(n int) CommonOption {
	return commonOption(func(o *Options) { o.Workers = n })
}

// WithRecorder routes the analysis pipeline's observability events —
// engine worker spans and per-stream progress, causality phase spans, Wait-Graph
// build spans, and cache counters — to r. The analyzer also wires r into
// the corpus source when the source is instrumentable (a
// *trace.CachedSource or *trace.DirSource), so stream-decode latency and
// cache hit/miss counters land in the same registry. A nil recorder is
// the no-op default.
func WithRecorder(r obs.Recorder) CommonOption {
	return commonOption(func(o *Options) { o.Recorder = r })
}

// WithThresholds supplies the per-scenario fast/slow developer
// thresholds (typically scenario.Thresholds) instances are classified
// with as their streams are folded. An Analyzer configured with them
// answers Impact and every Causality call that uses them from one fold
// of the corpus; a Diff uses them to maintain contrast classes while
// profiling each side. Scenarios the function declines keep impact
// metrics (and, in a diff, alignment counts and edge deltas) but no
// contrast classes. The function must be pure: it is called from
// concurrent fold workers.
func WithThresholds(fn func(scenario string) (tfast, tslow trace.Duration, ok bool)) CommonOption {
	return commonOption(func(o *Options) { o.Thresholds = fn })
}

// WithFilter names the components under diff analysis. Nil (the
// default) means all drivers.
func WithFilter(f *trace.ComponentFilter) DiffOption {
	return diffOption(func(d *DiffOptions) { d.Filter = f })
}

// WithMiningParams bounds the contrast-mining step of the diff (path
// segment length K, segment caps). Zero fields take the paper's
// defaults.
func WithMiningParams(p mining.Params) DiffOption {
	return diffOption(func(d *DiffOptions) { d.Mining = p })
}

// WithTopEdges bounds the globally ranked regression and improvement
// lists of the DiffResult. Zero takes the default (10); negative means
// unbounded. Per-scenario edge deltas are always complete.
func WithTopEdges(n int) DiffOption {
	return diffOption(func(d *DiffOptions) { d.TopEdges = n })
}
