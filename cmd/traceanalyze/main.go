// Command traceanalyze runs the paper's two-step analysis over a corpus
// written by tracegen: impact analysis for a component filter, and —
// given a scenario — causality analysis printing the ranked contrast
// patterns. With -diff it compares two corpora instead, ranking the
// wait-chain regressions between them.
//
// Usage:
//
//	traceanalyze -corpus DIR [-components "*.sys"] [-cache N]
//	             [-scenario NAME [-tfast MS -tslow MS] [-top N] [-k N]]
//	             [-metrics] [-progress] [-pprof ADDR]
//	traceanalyze -diff [-format md|json] [shared flags] BASELINE_DIR CANDIDATE_DIR
//
// The corpus is opened lazily: only stream metadata is read up front.
// The analysis sweeps — the fold, -percomponent, -locate — decode each
// stream into the buffers of the worker that folds it and overwrite it
// with the next, so corpora much larger than RAM analyse in memory
// bounded by the worker count; they pass the decoded-stream LRU by
// (-cachestats counts their fetches as misses, and nothing is inserted).
// The LRU, bounded by -cache, serves the passes that fetch whole streams
// to keep (-baselines); -cache 0 leaves it unbounded.
//
// In -diff mode both corpora are profiled out-of-core the same way,
// scenarios are aligned across them, and stdout carries only the
// regression report (markdown by default, canonical JSON with -format
// json) — byte-identical at any -workers setting, and byte-identical to
// the tracescoped /diff endpoint over the same pair.
//
// Observability: -progress prints live per-phase progress to stderr;
// -metrics prints a final Prometheus-text and JSON metrics snapshot
// (counters and span counts only — no wall time — so the snapshot is
// byte-identical across runs at the same seed and worker count);
// -pprof serves net/http/pprof and expvar (including the live metrics
// snapshot under "tracescope_metrics") on the given address.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"tracescope"
	"tracescope/internal/cliflags"
	"tracescope/internal/mining"
	"tracescope/internal/report"
)

func main() {
	var (
		dir          = flag.String("corpus", "", "corpus directory (required unless -diff)")
		components   = flag.String("components", "*.sys", "comma-free component pattern (repeatable via commas)")
		scen         = flag.String("scenario", "", "scenario for causality analysis (optional)")
		tfastMS      = flag.Float64("tfast", 0, "fast-class threshold in ms (default: catalogue value)")
		tslowMS      = flag.Float64("tslow", 0, "slow-class threshold in ms (default: catalogue value)")
		top          = flag.Int("top", 10, "number of ranked patterns (or diff edges) to print")
		k            = flag.Int("k", 5, "maximum path-segment length for meta-pattern enumeration")
		locate       = flag.Bool("locate", false, "locate concrete slow instances for the top pattern")
		baselines    = flag.Bool("baselines", false, "also run the §6 baselines (profile, contention, StackMine)")
		perComponent = flag.Bool("percomponent", false, "print the per-driver impact breakdown")
		cacheStats   = flag.Bool("cachestats", false, "print decoded-stream cache counters after the run (a sweep's fetches are misses that insert nothing)")
		diffMode     = flag.Bool("diff", false, "diff two corpus directories (baseline candidate) given as positional arguments")
		format       = flag.String("format", "md", "-diff report format: md or json")
	)
	var cf cliflags.Flags
	cf.RegisterWorkers(flag.CommandLine)
	cf.RegisterCache(flag.CommandLine)
	cf.RegisterObservability(flag.CommandLine)
	cf.RegisterPprof(flag.CommandLine)
	flag.Parse()

	wall := func() int64 { return time.Now().UnixNano() }
	rec, mem := cf.Recorder(os.Stderr, wall)
	cf.StartPprof("traceanalyze", mem)

	if *diffMode {
		runDiff(flag.Args(), *components, *format, *top, *k, cf, rec, mem)
		return
	}
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "traceanalyze: -corpus is required")
		flag.Usage()
		os.Exit(2)
	}

	dirSrc, err := tracescope.OpenCorpusDir(*dir)
	if err != nil {
		fatal(err)
	}
	cached := tracescope.NewCachedSource(dirSrc, cf.Cache)
	var src tracescope.Source = cached
	fmt.Printf("corpus: %d streams, %d instances, %d events\n\n",
		src.NumStreams(), src.NumInstances(), src.NumEvents())

	// -scenario's thresholds are known before anything is analysed, so
	// they go in up front: Impact and Causality then share one fold.
	var tfast, tslow tracescope.Duration
	thresholds := tracescope.Thresholds
	if *scen != "" {
		tfast = tracescope.Duration(*tfastMS * 1000)
		tslow = tracescope.Duration(*tslowMS * 1000)
		if tfast == 0 || tslow == 0 {
			ctf, cts, ok := tracescope.Thresholds(*scen)
			if !ok {
				fatal(fmt.Errorf("no catalogue thresholds for %q; pass -tfast and -tslow", *scen))
			}
			if tfast == 0 {
				tfast = ctf
			}
			if tslow == 0 {
				tslow = cts
			}
		}
		thresholds = func(name string) (tracescope.Duration, tracescope.Duration, bool) {
			if name == *scen {
				return tfast, tslow, true
			}
			return tracescope.Thresholds(name)
		}
	}

	filter := tracescope.NewComponentFilter(*components)
	an := tracescope.NewAnalyzer(src,
		tracescope.WithWorkers(cf.Workers),
		tracescope.WithRecorder(rec),
		tracescope.WithThresholds(thresholds))

	m := an.Impact(filter, *scen)
	scope := "all scenarios"
	if *scen != "" {
		scope = *scen
	}
	fmt.Printf("impact analysis (%s, filter %q):\n  %v\n\n", scope, *components, m)

	if *perComponent {
		fmt.Println("per-driver impact:")
		for _, ci := range an.ImpactByComponent(filter, nil) {
			fmt.Printf("  %-16s Dwait=%-12v Drun=%v\n", ci.Module, ci.Dwait, ci.Drun)
		}
		fmt.Println()
	}
	if *baselines {
		// The §6 baselines stream one decoded stream at a time through
		// the same cached source, so they too run out-of-core.
		prof, err := tracescope.CallGraphProfile(src)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("call-graph profile: %v CPU total; top 5 by cumulative:\n", prof.TotalCPU)
		for _, e := range prof.Top(5) {
			fmt.Printf("  %-34s self=%-10v cum=%v\n", e.Frame, e.Self, e.Cumulative)
		}
		cont, err := tracescope.LockContention(src, filter)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("lock contention: %v total; top 5 sites:\n", cont.TotalWait)
		for _, e := range cont.Top(5) {
			fmt.Printf("  %-34s total=%-10v count=%d\n", e.WaitSig, e.Total, e.Count)
		}
		sm, err := tracescope.MineStacks(src, filter, 3)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("StackMine: %d patterns over %v wait; top 3:\n", len(sm.Patterns), sm.TotalWait)
		for _, p := range sm.Top(3) {
			fmt.Printf("  cost=%-10v n=%-5d %s\n", p.Cost, p.Count, p)
		}
		fmt.Println()
	}

	if *scen == "" {
		finish(an, cached, *cacheStats, mem)
		return
	}

	res, err := an.Causality(tracescope.CausalityConfig{
		Scenario: *scen,
		Tfast:    tfast,
		Tslow:    tslow,
		Filter:   filter,
		Mining:   mining.Params{K: *k},
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("causality analysis of %s (Tfast=%v, Tslow=%v, k=%d):\n", *scen, tfast, tslow, *k)
	fmt.Printf("  instances=%d fast=%d slow=%d contrasts=%d patterns=%d\n",
		res.Instances, res.FastCount, res.SlowCount, res.NumContrasts, len(res.Patterns))
	fmt.Printf("  driver cost=%.1f%% ITC=%.1f%% TTC=%.1f%% reduced=%.1f%%\n\n",
		res.DriverCostShare*100, res.ITC*100, res.TTC*100, res.ReducedShare*100)

	n := *top
	if n > len(res.Patterns) {
		n = len(res.Patterns)
	}
	for i, p := range res.Patterns[:n] {
		fmt.Printf("#%-3d avg=%-10v C=%-10v N=%-5d maxExec=%v\n     %s\n",
			i+1, p.AvgC(), p.C, p.N, p.MaxExec, p.Tuple)
	}

	if *locate && len(res.Patterns) > 0 {
		fmt.Printf("\nconcrete slow instances exhibiting pattern #1:\n")
		for _, occ := range an.LocatePattern(res, res.Patterns[0], filter, 5) {
			id := src.StreamMeta(occ.Ref.Stream).ID
			fmt.Printf("  %s stream=%d instance=%d duration=%v (inspect: tracedump -corpus ... -stream %d -instance %d)\n",
				id, occ.Ref.Stream, occ.Ref.Instance, occ.Instance.Duration(),
				occ.Ref.Stream, occ.Ref.Instance)
		}
	}
	finish(an, cached, *cacheStats, mem)
}

// runDiff is the -diff mode: profile the two positional corpora, diff
// them, and write only the regression report to stdout (so two runs —
// or a run and the tracescoped /diff endpoint — byte-compare equal).
func runDiff(args []string, components, format string, top, k int, cf cliflags.Flags, rec tracescope.Recorder, mem *tracescope.MemRecorder) {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "traceanalyze: -diff needs exactly two corpus directories: baseline candidate")
		os.Exit(2)
	}
	if format != "md" && format != "json" {
		fmt.Fprintf(os.Stderr, "traceanalyze: bad -format %q (md or json)\n", format)
		os.Exit(2)
	}
	open := func(dir string) tracescope.Source {
		src, err := tracescope.OpenCorpusDir(dir)
		if err != nil {
			fatal(err)
		}
		return tracescope.NewCachedSource(src, cf.Cache)
	}
	base, cand := open(args[0]), open(args[1])

	res, err := tracescope.Diff(base, cand,
		tracescope.WithWorkers(cf.Workers),
		tracescope.WithRecorder(rec),
		tracescope.WithFilter(tracescope.NewComponentFilter(components)),
		tracescope.WithTopEdges(top),
		tracescope.WithMiningParams(tracescope.MiningParams{K: k}))
	if err != nil {
		fatal(err)
	}
	switch format {
	case "json":
		err = report.WriteDiffJSON(os.Stdout, res)
	default:
		err = report.WriteDiffMarkdown(os.Stdout, res)
	}
	if err != nil {
		fatal(err)
	}
	if err := cliflags.DumpMetrics(os.Stderr, mem); err != nil {
		fatal(err)
	}
}

// finish prints, optionally, the cache counters and the metrics
// snapshot, and surfaces a stream-fetch failure only Analyzer.Err
// reports (an Impact whose fold failed printed zero metrics).
func finish(an *tracescope.Analyzer, cached *tracescope.CachedSource, stats bool, mem *tracescope.MemRecorder) {
	if stats {
		s := cached.Stats()
		fmt.Printf("\nstream cache: limit=%d hits=%d misses=%d evictions=%d high-water=%d\n",
			cached.Limit(), s.Hits, s.Misses, s.Evictions, s.HighWater)
	}
	if err := cliflags.DumpMetrics(os.Stdout, mem); err != nil {
		fatal(err)
	}
	if err := an.Err(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "traceanalyze: %v\n", err)
	os.Exit(1)
}
