// Command benchjson measures the analysis pipelines and writes the
// results as machine-readable JSON (schemas in internal/benchfmt), so
// successive changes have a recorded perf trajectory that the bench
// gate (cmd/benchgate) enforces. Four modes:
//
//   - engine (default, BENCH_engine.json): sweeps the shard-and-merge
//     worker pool over the two engine-backed pipelines — headline impact
//     analysis and one full causality analysis — with the Wait-Graph
//     cache disabled, so every iteration measures real graph assembly
//     and measurement work.
//
//   - corpus (BENCH_corpus.json): measures out-of-core corpus access —
//     eager vs lazy load latency, stream-decode throughput per on-disk
//     format (v3 rows, v4 columnar, v4 with buffer recycling; MB/s and
//     allocs/op), then the headline impact analysis over in-memory and
//     directory-backed sources across worker counts and decoded-stream
//     cache limits, with the stream cache's counters on the rows that
//     have a cache.
//
//   - metrics (BENCH_metrics.json): runs the full pipeline — headline
//     impact plus one causality analysis — over a directory-backed
//     source with the observability recorder attached (no clock, pinned
//     workers, unbounded stream cache), reconciles the counters
//     in-process (streams decoded == cache misses; shard spans == shard
//     count), and writes the deterministic metrics snapshot: two runs at
//     the same seed must produce byte-identical files, which CI checks.
//
//   - paper: generates the paper-scale corpus (~19.5k streams, ~505k
//     instances; divide with -scale) stream by stream through the
//     corpus appender — the full corpus never exists in memory — then
//     times a complete out-of-core impact + causality pass under a
//     fixed stream-cache limit, and merges the timings into
//     BENCH_corpus.json's "paper" section.
//
// Usage:
//
//	benchjson [-mode engine|corpus|metrics|paper] [-out FILE] [-seed N]
//	          [-streams N] [-episodes N] [-workers 1,2,4,8]
//	          [-cachelimits 2,8,32,0] [-corpusworkers 1,4]
//	          [-scale N] [-cachelimit N]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"tracescope/internal/benchfmt"
	"tracescope/internal/core"
	"tracescope/internal/obs"
	"tracescope/internal/scenario"
	"tracescope/internal/trace"
)

func main() {
	var (
		mode     = flag.String("mode", "engine", "benchmark family: engine, corpus, metrics, or paper")
		out      = flag.String("out", "", "output file (default BENCH_<mode>.json; paper merges into BENCH_corpus.json)")
		seed     = flag.Int64("seed", 1, "corpus generation seed")
		streams  = flag.Int("streams", 24, "number of trace streams")
		episodes = flag.Int("episodes", 10, "episodes per stream")
		workers  = flag.String("workers", "1,2,4,8", "comma-separated worker counts to sweep (engine mode)")
		limits   = flag.String("cachelimits", "2,8,32,0", "comma-separated stream-cache limits to sweep, 0 = unbounded (corpus mode)")
		cworkers = flag.String("corpusworkers", "1,4", "comma-separated worker counts for the corpus-mode analysis rows")
		scale    = flag.Int("scale", 1, "paper-corpus downscale divisor (paper mode; 1 = full 19.5k streams)")
		climit   = flag.Int("cachelimit", 64, "decoded-stream cache limit for the paper-mode analysis pass")
	)
	flag.Parse()
	if *out == "" {
		if *mode == "paper" {
			*out = "BENCH_corpus.json"
		} else {
			*out = "BENCH_" + *mode + ".json"
		}
	}

	if *mode == "paper" {
		runPaper(*seed, *scale, *climit, *out)
		return
	}

	corpus := scenario.Generate(scenario.Config{Seed: *seed, Streams: *streams, Episodes: *episodes})
	info := benchfmt.CorpusInfo{
		Seed: *seed, Streams: *streams, Episodes: *episodes,
		Instances: corpus.NumInstances(), Events: corpus.NumEvents(),
	}

	switch *mode {
	case "engine":
		sweep, err := parseInts(*workers, 1)
		if err != nil {
			fatal(err)
		}
		runEngine(corpus, info, sweep, *out)
	case "corpus":
		lsweep, err := parseInts(*limits, 0)
		if err != nil {
			fatal(err)
		}
		wsweep, err := parseInts(*cworkers, 1)
		if err != nil {
			fatal(err)
		}
		runCorpus(corpus, info, lsweep, wsweep, *out)
	case "metrics":
		runMetrics(corpus, *out)
	default:
		fatal(fmt.Errorf("unknown -mode %q (want engine, corpus, metrics, or paper)", *mode))
	}
}

// metricsWorkers pins the metrics-mode worker count: shard counts (and
// with them shard-span counts) depend on the worker count, so the
// deterministic-snapshot contract holds per fixed setting.
const metricsWorkers = 4

// runMetrics drives the instrumented pipeline over a directory-backed
// source and writes the recorder's snapshot, after reconciling its
// counters against each other. The recorder has no clock and the stream
// cache is unbounded (eviction order under concurrency is
// interleaving-dependent), so the snapshot is byte-identical across
// runs at the same seed, stream count, and worker count.
func runMetrics(corpus *trace.Corpus, out string) {
	dir, err := os.MkdirTemp("", "benchjson-metrics-*")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)
	if err := corpus.WriteDir(dir); err != nil {
		fatal(err)
	}
	src, err := trace.OpenDir(dir)
	if err != nil {
		fatal(err)
	}
	cached := trace.NewCachedSource(src, 0)

	rec := obs.NewMemRecorder()
	an := core.NewAnalyzer(cached, core.WithWorkers(metricsWorkers), core.WithRecorder(rec))
	if m := an.Impact(trace.AllDrivers(), ""); m.IAwait() <= 0 {
		fatal(fmt.Errorf("degenerate impact"))
	}
	tf, ts, _ := scenario.Thresholds(scenario.BrowserTabCreate)
	if _, err := an.Causality(core.CausalityConfig{
		Scenario: scenario.BrowserTabCreate, Tfast: tf, Tslow: ts,
	}); err != nil {
		fatal(err)
	}
	if err := an.Err(); err != nil {
		fatal(err)
	}

	snap := rec.Snapshot()
	decoded := snap.Counter("trace_streams_decoded_total")
	misses := snap.Counter("source_cache_misses_total")
	if decoded == 0 || decoded != misses {
		fatal(fmt.Errorf("metrics reconcile: streams decoded %d != cache misses %d", decoded, misses))
	}
	if h, ok := snap.Span("trace_decode"); !ok || h.Count != decoded {
		fatal(fmt.Errorf("metrics reconcile: trace_decode spans != streams decoded %d", decoded))
	}
	shards := snap.Counter("engine_shards_total")
	var shardSpans int64
	for _, h := range snap.Spans {
		if strings.HasSuffix(h.Name, "_shard") {
			shardSpans += h.Count
		}
	}
	if shards == 0 || shardSpans != shards {
		fatal(fmt.Errorf("metrics reconcile: shard spans %d != shards %d", shardSpans, shards))
	}

	f, err := os.Create(out)
	if err != nil {
		fatal(err)
	}
	if err := snap.WriteJSON(f); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil || !json.Valid(data) {
		fatal(fmt.Errorf("metrics snapshot is not valid JSON: %v", err))
	}
	fmt.Printf("metrics: %d streams decoded, %d shards, %d counters, %d spans\n",
		decoded, shards, len(snap.Counters), len(snap.Spans))
	fmt.Printf("wrote %s\n", out)
}

func runEngine(corpus *trace.Corpus, info benchfmt.CorpusInfo, sweep []int, out string) {
	rep := &benchfmt.Report{GeneratedBy: "cmd/benchjson", GoMaxProcs: runtime.GOMAXPROCS(0), Corpus: info}

	tf, ts, _ := scenario.Thresholds(scenario.BrowserTabCreate)
	pipelines := []struct {
		name string
		run  func(an *core.Analyzer)
	}{
		{"headline-impact", func(an *core.Analyzer) {
			if m := an.Impact(trace.AllDrivers(), ""); m.IAwait() <= 0 {
				fatal(fmt.Errorf("degenerate impact"))
			}
		}},
		{"causality-" + scenario.BrowserTabCreate, func(an *core.Analyzer) {
			if _, err := an.Causality(core.CausalityConfig{
				Scenario: scenario.BrowserTabCreate, Tfast: tf, Tslow: ts,
			}); err != nil {
				fatal(err)
			}
		}},
	}

	for _, p := range pipelines {
		base := int64(0)
		for _, w := range sweep {
			an := core.NewAnalyzer(corpus, core.WithWorkers(w))
			an.SetGraphCacheLimit(0) // measure real work every iteration
			p.run(an)                // warm the per-stream builders once
			res := minBench(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					p.run(an)
				}
			})
			r := benchfmt.Result{
				Name:       p.name,
				Workers:    w,
				Iterations: res.N,
				NsPerOp:    res.NsPerOp(),
			}
			if base == 0 {
				base = r.NsPerOp
			}
			if r.NsPerOp > 0 {
				r.SpeedupVs1 = float64(base) / float64(r.NsPerOp)
			}
			rep.Results = append(rep.Results, r)
			fmt.Printf("%-32s workers=%-2d %12d ns/op  speedup %.2fx\n",
				p.name, w, r.NsPerOp, r.SpeedupVs1)
		}
	}

	writeJSON(out, rep)
}

func runCorpus(corpus *trace.Corpus, info benchfmt.CorpusInfo, limits, workers []int, out string) {
	dir4, err := os.MkdirTemp("", "benchjson-corpus-v4-*")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir4)
	if err := corpus.WriteDir(dir4); err != nil {
		fatal(err)
	}
	dir3, err := os.MkdirTemp("", "benchjson-corpus-v3-*")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir3)
	if err := corpus.WriteDirVersion(dir3, 3); err != nil {
		fatal(err)
	}

	rep := &benchfmt.CorpusReport{GeneratedBy: "cmd/benchjson", GoMaxProcs: runtime.GOMAXPROCS(0), Corpus: info}

	start := time.Now()
	if _, err := trace.ReadDir(dir4); err != nil {
		fatal(err)
	}
	rep.LoadEagerNs = time.Since(start).Nanoseconds()
	start = time.Now()
	if _, err := trace.OpenDir(dir4); err != nil {
		fatal(err)
	}
	rep.LoadLazyNs = time.Since(start).Nanoseconds()
	fmt.Printf("load: eager %d ns, lazy (metadata only) %d ns\n", rep.LoadEagerNs, rep.LoadLazyNs)

	// Decode throughput: a full DirSource.Stream sweep per op. DirSource
	// decodes fresh on every call, so this isolates the codec hot path
	// from caching; v4-pooled returns each stream's buffers before the
	// next decode — the steady state of a bounded out-of-core run.
	for _, d := range []struct {
		format  string
		dir     string
		recycle bool
	}{
		{"v3", dir3, false},
		{"v4", dir4, false},
		{"v4-pooled", dir4, true},
	} {
		rep.Decode = append(rep.Decode, measureDecode(d.format, d.dir, d.recycle, info))
	}

	// The in-memory reference point, cache concerns absent.
	wantImpact := core.NewAnalyzer(corpus).Impact(trace.AllDrivers(), "")
	for _, w := range workers {
		memRes := minBench(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				an := core.NewAnalyzer(corpus, core.WithWorkers(w))
				an.SetGraphCacheLimit(0)
				if m := an.Impact(trace.AllDrivers(), ""); m != wantImpact {
					fatal(fmt.Errorf("in-memory impact diverged"))
				}
			}
		})
		r := benchfmt.CorpusResult{
			Name: "impact-inmemory", CacheLimit: -1, Workers: w,
			Iterations: memRes.N, NsPerOp: memRes.NsPerOp(),
		}
		rep.Results = append(rep.Results, r)
		fmt.Printf("%-20s workers=%-2d           %12d ns/op\n", r.Name, w, r.NsPerOp)
	}

	for _, limit := range limits {
		for _, w := range workers {
			src, err := trace.OpenDir(dir4)
			if err != nil {
				fatal(err)
			}
			cached := trace.NewCachedSource(src, limit)
			res := minBench(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					an := core.NewAnalyzer(cached, core.WithWorkers(w))
					an.SetGraphCacheLimit(0)
					if m := an.Impact(trace.AllDrivers(), ""); m != wantImpact {
						fatal(fmt.Errorf("out-of-core impact diverged at cache limit %d", limit))
					}
					if err := an.Err(); err != nil {
						fatal(err)
					}
				}
			})
			st := cached.Stats()
			r := benchfmt.CorpusResult{
				Name:       "impact-dirsource",
				CacheLimit: limit,
				Workers:    w,
				Iterations: res.N,
				NsPerOp:    res.NsPerOp(),
				Cache: &benchfmt.CacheCounters{
					Hits: st.Hits, Misses: st.Misses, Evictions: st.Evictions, HighWater: st.HighWater,
				},
			}
			rep.Results = append(rep.Results, r)
			fmt.Printf("%-20s workers=%-2d cache=%-4d %12d ns/op  hits=%d misses=%d evictions=%d high-water=%d\n",
				r.Name, w, limit, r.NsPerOp, st.Hits, st.Misses, st.Evictions, st.HighWater)
		}
	}

	// A corpus refresh must not drop the paper section, which is
	// regenerated on its own (slower) schedule via -mode paper.
	if _, err := os.Stat(out); err == nil {
		old := &benchfmt.CorpusReport{}
		if err := benchfmt.ReadFile(out, old); err == nil {
			rep.Paper = old.Paper
		}
	}

	writeJSON(out, rep)
}

// measureDecode benchmarks one full decode sweep over the corpus in
// dir. MB/s is on-disk stream-file bytes over wall time; allocs come
// from testing.AllocsPerOp spread over the sweep's streams and events.
func measureDecode(format, dir string, recycle bool, info benchfmt.CorpusInfo) benchfmt.DecodeResult {
	st, err := trace.CollectDirStats(dir)
	if err != nil {
		fatal(err)
	}
	src, err := trace.OpenDir(dir)
	if err != nil {
		fatal(err)
	}
	sweep := func() {
		for i := 0; i < src.NumStreams(); i++ {
			s, err := src.Stream(i)
			if err != nil {
				fatal(err)
			}
			if recycle {
				src.Recycle(s)
			}
		}
	}
	sweep() // warm the pool so the steady state is what's measured
	res := minBench(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sweep()
		}
	})
	d := benchfmt.DecodeResult{
		Format:          format,
		Iterations:      res.N,
		NsPerOp:         res.NsPerOp(),
		StreamBytes:     st.StreamBytes,
		AllocsPerStream: float64(res.AllocsPerOp()) / float64(info.Streams),
		AllocsPerEvent:  float64(res.AllocsPerOp()) / float64(info.Events),
	}
	if d.NsPerOp > 0 {
		d.MBPerSec = float64(st.StreamBytes) / (float64(d.NsPerOp) / 1e9) / 1e6
	}
	fmt.Printf("decode %-10s %12d ns/op  %8.1f MB/s  %8.1f allocs/stream  %.4f allocs/event\n",
		d.Format, d.NsPerOp, d.MBPerSec, d.AllocsPerStream, d.AllocsPerEvent)
	return d
}

// Paper-scale corpus shape: ~19.5k streams / ~505k instances, the
// paper's §5 evaluation volume (19,500 traces, 505,500 instances). Six
// episodes per stream lands instance density at the paper's ~26 per
// trace.
const (
	paperStreams  = 19500
	paperEpisodes = 6
)

// runPaper generates the paper-scale corpus through the appender (the
// corpus never exists in memory), times a full out-of-core impact +
// causality pass under a fixed cache limit, and merges the result into
// out's "paper" section, preserving the other sections of an existing
// report.
func runPaper(seed int64, scale, cacheLimit int, out string) {
	if scale < 1 {
		fatal(fmt.Errorf("bad -scale %d", scale))
	}
	if cacheLimit <= 0 {
		fatal(fmt.Errorf("paper mode needs a positive -cachelimit (the point is a fixed memory bound)"))
	}
	cfg := scenario.Config{Seed: seed, Streams: paperStreams / scale, Episodes: paperEpisodes}

	dir, err := os.MkdirTemp("", "benchjson-paper-*")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)

	start := time.Now()
	app, err := trace.OpenAppender(dir)
	if err != nil {
		fatal(err)
	}
	err = scenario.GenerateEach(cfg, func(i int, s *trace.Stream) error {
		_, err := app.Append(s)
		return err
	})
	if err != nil {
		fatal(err)
	}
	genNs := time.Since(start).Nanoseconds()

	src, err := trace.OpenDir(dir)
	if err != nil {
		fatal(err)
	}
	cached := trace.NewCachedSource(src, cacheLimit)
	workers := runtime.GOMAXPROCS(0)
	an := core.NewAnalyzer(cached, core.WithWorkers(workers))
	fmt.Printf("paper corpus: %d streams, %d instances, %d events (generated in %.1fs)\n",
		src.NumStreams(), src.NumInstances(), src.NumEvents(), float64(genNs)/1e9)

	start = time.Now()
	m := an.Impact(trace.AllDrivers(), "")
	impactNs := time.Since(start).Nanoseconds()
	if err := an.Err(); err != nil {
		fatal(err)
	}
	if m.IAwait() <= 0 {
		fatal(fmt.Errorf("degenerate paper impact"))
	}
	fmt.Printf("impact: %.1fs (IAwait %.1f%%)\n", float64(impactNs)/1e9, m.IAwait()*100)

	tf, ts, _ := scenario.Thresholds(scenario.BrowserTabCreate)
	start = time.Now()
	res, err := an.Causality(core.CausalityConfig{
		Scenario: scenario.BrowserTabCreate, Tfast: tf, Tslow: ts,
	})
	causalNs := time.Since(start).Nanoseconds()
	if err != nil {
		fatal(err)
	}
	if len(res.Patterns) == 0 {
		fatal(fmt.Errorf("degenerate paper causality: no patterns"))
	}
	st := cached.Stats()
	fmt.Printf("causality: %.1fs (%d patterns)  cache high-water %d (limit %d)\n",
		float64(causalNs)/1e9, len(res.Patterns), st.HighWater, cacheLimit)

	rep := &benchfmt.CorpusReport{GeneratedBy: "cmd/benchjson", GoMaxProcs: workers}
	if _, err := os.Stat(out); err == nil {
		rep = &benchfmt.CorpusReport{}
		if err := benchfmt.ReadFile(out, rep); err != nil {
			fatal(err)
		}
	}
	rep.Paper = &benchfmt.PaperResult{
		Streams:    src.NumStreams(),
		Instances:  src.NumInstances(),
		Events:     src.NumEvents(),
		CacheLimit: cacheLimit,
		Workers:    workers,
		GenerateNs: genNs,
		ImpactNs:   impactNs,
		CausalNs:   causalNs,
		Patterns:   len(res.Patterns),
		HighWater:  st.HighWater,
	}
	writeJSON(out, rep)
}

// minBench runs a benchmark function several times and keeps the
// fastest result. Contention on a shared machine is one-sided — a
// co-tenant can only add time, never subtract it — so the minimum is a
// far more stable estimator of the code's cost than any single run,
// and it is what keeps the bench gate's tolerance meaningful.
const benchReps = 3

func minBench(f func(b *testing.B)) testing.BenchmarkResult {
	var best testing.BenchmarkResult
	for i := 0; i < benchReps; i++ {
		res := testing.Benchmark(f)
		if i == 0 || res.NsPerOp() < best.NsPerOp() {
			best = res
		}
	}
	return best
}

func writeJSON(out string, rep any) {
	if err := benchfmt.WriteFile(out, rep); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", out)
}

func parseInts(s string, min int) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < min {
			return nil, fmt.Errorf("benchjson: bad count %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("benchjson: empty sweep")
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
	os.Exit(1)
}
