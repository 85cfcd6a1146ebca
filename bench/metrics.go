package main

import (
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"

	"tracescope/internal/stats"
)

// metricDef names one metric of the benchmark. The tables below are the
// source of truth; bench_test.go asserts BENCHMARK.json repeats them
// exactly.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: tolerated relative worsening
}

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name string
	Why  string
}

var workloads = []workloadDef{
	{"batch_cold", "traceanalyze path over a directory corpus 3x the 64-stream cache: index, decode, LRU and Wait-Graph work dominate"},
	{"batch_resident", "same analysis over a corpus loaded in memory: zero trace-layer work, so decode and cache changes must show no change here"},
	{"ingest_grow", "one closed-loop poster fills an empty daemon, then queries and a restart: the write path while the corpus grows from 0"},
	{"daemon_mixed", "one poster and one querier share the daemon's RWMutex over a half-filled corpus: reads beside writes"},
}

// endToEnd is what a user of the system sees. Every workload emits every
// one of them; README.md says what each means on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"request_p50_ms", "ms", "lower", 0.20},
	{"request_p90_ms", "ms", "lower", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"query_p90_ms", "ms", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.20},
	{"cpu_ms_per_request", "ms", "lower", 0.20},
	{"open_ms", "ms", "lower", 0.20},
	{"peak_rss_mb", "MB", "lower", 0.20},
	{"corpus_bytes_per_event", "B", "lower", 0.02},
}

// perLayer is what the traced run attributes to single layers. A metric
// that does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	{"trace.index_open_s", "s", "lower", 0},
	{"trace.decode_s", "s", "lower", 0},
	{"trace.decode_count", "count", "lower", 0},
	{"trace.decodes_per_stream", "ratio", "lower", 0},
	{"trace.decode_mb_per_s", "MB/s", "higher", 0},
	{"trace.cache_hit_ratio", "ratio", "higher", 0},
	{"trace.cache_evictions", "count", "lower", 0},
	{"trace.wire_decode_ms", "ms", "lower", 0},
	{"trace.append_ms", "ms", "lower", 0},
	{"trace.reload_ms", "ms", "lower", 0},
	{"trace.reload_first_decile_ms", "ms", "lower", 0},
	{"trace.reload_last_decile_ms", "ms", "lower", 0},
	{"trace.reload_growth", "ratio", "lower", 0},
	{"waitgraph.build_s", "s", "lower", 0},
	{"waitgraph.graphs", "count", "lower", 0},
	{"waitgraph.nodes", "count", "lower", 0},
	{"waitgraph.build_us_per_graph", "us", "lower", 0},
	{"impact.fold_s", "s", "lower", 0},
	{"impact.graphs_built", "count", "lower", 0},
	{"impact.graphs_per_instance", "ratio", "lower", 0},
	{"impact.graph_cache_hit_ratio", "ratio", "higher", 0},
	{"awg.add_s", "s", "lower", 0},
	{"awg.merge_s", "s", "lower", 0},
	{"awg.finish_s", "s", "lower", 0},
	{"awg.nodes", "count", "lower", 0},
	{"mining.enumerate_s", "s", "lower", 0},
	{"mining.select_s", "s", "lower", 0},
	{"mining.lift_s", "s", "lower", 0},
	{"mining.metas", "count", "lower", 0},
	{"mining.patterns", "count", "lower", 0},
	{"engine.impact_w1_s", "s", "lower", 0},
	{"engine.impact_wn_s", "s", "lower", 0},
	{"engine.speedup", "ratio", "higher", 0},
	{"engine.cpu_ratio", "ratio", "lower", 0},
	{"engine.shards", "count", "lower", 0},
	{"core.impact_s", "s", "lower", 0},
	{"core.causality_s", "s", "lower", 0},
	{"core.attributed_share", "ratio", "higher", 0},
	{"core.unattributed_s", "s", "lower", 0},
	{"core.inc_ingest_ms", "ms", "lower", 0},
	{"tracevet.vet_ms", "ms", "lower", 0},
	{"ingest.request_p99_ms", "ms", "lower", 0},
	{"ingest.first_decile_p50_ms", "ms", "lower", 0},
	{"ingest.last_decile_p50_ms", "ms", "lower", 0},
	{"ingest.growth", "ratio", "lower", 0},
	{"ingest.http_overhead_ms", "ms", "lower", 0},
	{"ingest.query_impact_ms", "ms", "lower", 0},
	{"ingest.query_causality_ms", "ms", "lower", 0},
	{"ingest.query_awg_ms", "ms", "lower", 0},
	{"ingest.query_p99_ms", "ms", "lower", 0},
	{"ingest.warmup_streams_per_s", "1/s", "higher", 0},
	{"report.render_s", "s", "lower", 0},
	{"proc.allocs_per_instance", "count", "lower", 0},
	{"proc.gc_cpu_share", "ratio", "lower", 0},
	{"bench.trace_overhead_share", "ratio", "lower", 0},
}

// sizes fixes how much work a workload does. The reference sizes are
// what BENCHMARK.json's numbers mean; the smoke test runs tiny ones.
type sizes struct {
	BatchStreams  int `json:"batch_streams"`
	BatchEpisodes int `json:"batch_episodes"`
	CacheLimit    int `json:"cache_limit"`
	FleetStreams  int `json:"fleet_streams"`
	FleetEpisodes int `json:"fleet_episodes"`
	SetupReps     int `json:"setup_reps"`
	MinPasses     int `json:"min_passes"`
	TracedPasses  int `json:"traced_passes"`
	QueryReps     int `json:"query_reps"`
}

// referenceSizes: corpus A is 3x the CLI-default stream cache, fleet B
// keeps the paper's ~26 instances per trace. Both are cut down from the
// paper's scale so that one run, three set-ups included, ends in about
// half a minute; see README.md for the sizing runs.
var referenceSizes = sizes{
	BatchStreams: 192, BatchEpisodes: 8, CacheLimit: 64,
	FleetStreams: 400, FleetEpisodes: 6,
	SetupReps: 3, MinPasses: 5, TracedPasses: 3, QueryReps: 10,
}

var tinySizes = sizes{
	BatchStreams: 8, BatchEpisodes: 3, CacheLimit: 3,
	FleetStreams: 8, FleetEpisodes: 3,
	SetupReps: 1, MinPasses: 1, TracedPasses: 1, QueryReps: 1,
}

// sample is one reported metric: a median (or a count) and how many
// observations stand behind it.
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// header records where and on what a result was measured. compare
// refuses to set two results side by side when their headers differ in
// anything but the commit.
type header struct {
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"git_commit"`
	Sizes      sizes  `json:"sizes"`
}

func newHeader(sz sizes) header {
	h := header{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Sizes:      sz,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's resident-set high-water mark (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// median is the 50th percentile with the two middle values of an
// even-sized sample averaged, as Python's statistics.median has it.
func median(v []float64) float64 { return stats.Percentile(v, 50) }

// quartiles mirrors Python's statistics.quantiles(v, n=4), the statistic
// the driver takes its spread from. It needs at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	ln := len(s)
	cut := func(i int) float64 {
		m := ln + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ln-1 {
			j = ln - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance of v as a share of its median.
func spread(v []float64) float64 {
	m := median(v)
	if len(v) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(m)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
