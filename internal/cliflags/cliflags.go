// Package cliflags centralises the flag wiring the tracescope commands
// share — the worker-pool, stream-cache, metrics, progress, and pprof
// flags that tracegen, traceanalyze, and tracescoped all grew
// independently. Each command registers only the groups it supports,
// so the flags keep identical names, defaults, and help text across
// binaries.
//
// The package never reads the wall clock itself (analysis code under
// internal/ is clockless by design rule); commands inject one for
// progress reporting.
package cliflags

import (
	"expvar"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // registered on the DefaultServeMux the -pprof server serves
	"os"

	"tracescope/internal/obs"
)

// Flags holds the shared command-line values after flag parsing.
// Groups that were not registered keep their zero values.
type Flags struct {
	// Workers bounds the analysis worker pools (0 = GOMAXPROCS,
	// 1 = inline; results are identical at any setting).
	Workers int
	// Cache is the decoded-stream LRU limit for out-of-core analysis.
	Cache int
	// Metrics asks for a final metrics snapshot; Progress for live
	// phase progress on stderr.
	Metrics  bool
	Progress bool
	// PprofAddr serves net/http/pprof and expvar when non-empty.
	PprofAddr string
}

// RegisterWorkers registers -workers.
func (f *Flags) RegisterWorkers(fs *flag.FlagSet) {
	fs.IntVar(&f.Workers, "workers", 0,
		"worker pool size (0 = GOMAXPROCS, 1 = sequential; results are identical)")
}

// RegisterCache registers -cache.
func (f *Flags) RegisterCache(fs *flag.FlagSet) {
	fs.IntVar(&f.Cache, "cache", 64,
		"decoded-stream LRU limit for fetches that revisit a stream (0 = unbounded); analysis sweeps decode into per-worker buffers and insert nothing")
}

// RegisterObservability registers -metrics and -progress.
func (f *Flags) RegisterObservability(fs *flag.FlagSet) {
	fs.BoolVar(&f.Metrics, "metrics", false,
		"print a Prometheus-text and JSON metrics snapshot after the run")
	fs.BoolVar(&f.Progress, "progress", false,
		"print live phase progress to stderr")
}

// RegisterPprof registers -pprof.
func (f *Flags) RegisterPprof(fs *flag.FlagSet) {
	fs.StringVar(&f.PprofAddr, "pprof", "",
		"serve net/http/pprof and expvar on this address (e.g. localhost:6060)")
}

// progressIntervalNS throttles live progress lines to one per phase per
// 200ms.
const progressIntervalNS = 200 * 1000 * 1000

// Recorder assembles the observability recorder the -metrics and
// -progress flags ask for: a clockless MemRecorder for the final
// snapshot (no wall time, so the snapshot is byte-identical across
// runs) teed with a progress printer on progressOut driven by the
// injected clock (nanoseconds; commands pass a wall clock). The
// returned MemRecorder is nil unless -metrics was set; the Recorder is
// never nil and safe to hand to any pipeline entry point.
func (f *Flags) Recorder(progressOut io.Writer, clock obs.Clock) (obs.Recorder, *obs.MemRecorder) {
	var mem *obs.MemRecorder
	var recs []obs.Recorder
	if f.Metrics {
		mem = obs.NewMemRecorder()
		recs = append(recs, mem)
	}
	if f.Progress {
		recs = append(recs, obs.NewProgressPrinter(progressOut, clock, progressIntervalNS))
	}
	return obs.Tee(recs...), mem
}

// StartPprof honours -pprof: it publishes the live metrics snapshot
// under the expvar name "tracescope_metrics" (nil until a MemRecorder
// exists) and serves net/http/pprof plus expvar on the flag's address
// in the background. name prefixes server errors on stderr. A no-op
// when the flag was not set.
func (f *Flags) StartPprof(name string, mem *obs.MemRecorder) {
	if f.PprofAddr == "" {
		return
	}
	expvar.Publish("tracescope_metrics", expvar.Func(func() any {
		if mem == nil {
			return nil
		}
		return mem.Snapshot()
	}))
	go func() {
		if err := http.ListenAndServe(f.PprofAddr, nil); err != nil {
			fmt.Fprintf(os.Stderr, "%s: pprof server: %v\n", name, err)
		}
	}()
}

// DumpMetrics writes the final snapshot of a Recorder()-built
// MemRecorder to w in both exposition formats, matching the commands'
// historical -metrics output. A no-op on a nil recorder (-metrics not
// set).
func DumpMetrics(w io.Writer, mem *obs.MemRecorder) error {
	if mem == nil {
		return nil
	}
	snap := mem.Snapshot()
	if _, err := fmt.Fprintln(w, "\n# metrics (Prometheus text exposition)"); err != nil {
		return err
	}
	if err := snap.WritePrometheus(w); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "\n# metrics (JSON)"); err != nil {
		return err
	}
	return snap.WriteJSON(w)
}
