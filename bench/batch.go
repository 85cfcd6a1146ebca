package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"tracescope"
	"tracescope/internal/awg"
	"tracescope/internal/engine"
	"tracescope/internal/impact"
	"tracescope/internal/mining"
	"tracescope/internal/stats"
	"tracescope/internal/trace"
	"tracescope/internal/waitgraph"
)

// batch is corpus A on disk and, for batch_resident, in memory.
type batch struct {
	r         *run
	dir       string
	corpus    *tracescope.Corpus // nil for batch_cold
	fileBytes []int64            // stream file sizes, by stream index
	diskBytes int64
	scenarios []string // the selected scenarios the corpus has instances of
	streams   int
	instances int
	events    int
}

// scenarioReport is what the report prints of one scenario's causality
// analysis. Both the facade pass and the staged replay fill it, so that
// one renderer hashes both.
type scenarioReport struct {
	name       string
	instances  int
	fast, slow int
	contrasts  int
	patterns   []tracescope.Pattern
	slowAWG    *tracescope.AWG
}

// render writes the report as traceanalyze and the daemon's /awg print
// it: the impact line, each scenario's class sizes, its top-10 patterns
// and its slow-class Aggregated Wait Graph.
func render(w io.Writer, m tracescope.ImpactMetrics, scenarios []scenarioReport) {
	fmt.Fprintf(w, "impact analysis (all scenarios):\n  %v\n", m)
	for _, s := range scenarios {
		fmt.Fprintf(w, "causality analysis of %s:\n  instances=%d fast=%d slow=%d contrasts=%d patterns=%d\n",
			s.name, s.instances, s.fast, s.slow, s.contrasts, len(s.patterns))
		for i, p := range s.patterns {
			if i == 10 {
				break
			}
			fmt.Fprintf(w, "#%-3d avg=%-10v C=%-10v N=%-5d maxExec=%v\n     %s\n",
				i+1, p.AvgC(), p.C, p.N, p.MaxExec, p.Tuple)
		}
		if s.slowAWG != nil {
			_ = s.slowAWG.WriteText(w, 64) // a hash.Hash never fails a write
		}
	}
}

// passResult is one full analysis pass: open, impact, one causality per
// selected scenario, render.
type passResult struct {
	total, open, impact, causality float64
	cpu                            float64
	sha                            string
	slow, classed                  int // instances in a slow class; in either class
	cache                          tracescope.SourceCacheStats
	graphHits, graphMisses         int64
	decodeBytes                    int64
}

// source opens a fresh corpus source the way the workload's user would.
// Under a span log the directory source is wrapped so that every real
// decode is timed.
func (b *batch) source(resident bool, log *spanLog, parent, id int) (tracescope.Source, *tracescope.CachedSource, *timedSource, error) {
	if resident {
		return b.corpus, nil, nil, nil
	}
	sp := log.start("trace.index_open", parent, id)
	ds, err := tracescope.OpenCorpusDir(b.dir)
	log.end(sp)
	if err != nil {
		return nil, nil, nil, err
	}
	var under tracescope.Source = ds
	var timed *timedSource
	if log != nil {
		timed = &timedSource{Source: ds, log: log, parent: parent, fileBytes: b.fileBytes}
		under = timed
	}
	cached := tracescope.NewCachedSource(under, b.r.sz.CacheLimit)
	return cached, cached, timed, nil
}

func (b *batch) pass(workers int, resident bool, log *spanLog, id int) (passResult, error) {
	var pr passResult
	root := log.start("pass", -1, id)
	defer log.end(root)
	cpu0 := cpuSeconds()
	t0 := time.Now()

	sp := log.start("open", root, id)
	src, cached, timed, err := b.source(resident, log, root, id)
	if err != nil {
		return pr, err
	}
	an := tracescope.NewAnalyzer(src, tracescope.WithWorkers(workers))
	log.end(sp)
	pr.open = time.Since(t0).Seconds()

	filter := tracescope.AllDrivers()
	t1 := time.Now()
	sp = log.start("impact", root, id)
	m := an.Impact(filter, "")
	log.end(sp)
	pr.impact = time.Since(t1).Seconds()

	var scenarios []scenarioReport
	t2 := time.Now()
	for i, name := range b.scenarios {
		tf, ts, ok := tracescope.Thresholds(name)
		if !ok {
			return pr, fmt.Errorf("no catalogue thresholds for %s", name)
		}
		sp = log.start("causality", root, i)
		res, err := an.Causality(tracescope.CausalityConfig{Scenario: name, Tfast: tf, Tslow: ts, Filter: filter})
		log.end(sp)
		if err != nil {
			return pr, fmt.Errorf("causality %s: %w", name, err)
		}
		pr.slow += res.SlowCount
		pr.classed += res.SlowCount + res.FastCount
		scenarios = append(scenarios, scenarioReport{
			name: name, instances: res.Instances, fast: res.FastCount, slow: res.SlowCount,
			contrasts: res.NumContrasts, patterns: res.Patterns, slowAWG: res.SlowAWG,
		})
	}
	pr.causality = time.Since(t2).Seconds()

	sp = log.start("report.render", root, id)
	h := sha256.New()
	render(h, m, scenarios)
	pr.sha = hex.EncodeToString(h.Sum(nil))
	log.end(sp)

	pr.total = time.Since(t0).Seconds()
	pr.cpu = cpuSeconds() - cpu0
	if err := an.Err(); err != nil {
		return pr, err
	}
	if cached != nil {
		pr.cache = cached.Stats()
	}
	if timed != nil {
		pr.decodeBytes = timed.decoded.Load()
	}
	gs := an.GraphCacheStats()
	pr.graphHits, pr.graphMisses = gs.Hits, gs.Misses
	return pr, nil
}

// setup generates corpus A one stream at a time into dir and for
// batch_resident loads it back.
func (b *batch) setup(dir string, resident bool) error {
	app, err := tracescope.OpenCorpusAppender(dir)
	if err != nil {
		return err
	}
	err = generate(b.r.seed, b.r.sz.BatchStreams, 0, b.r.sz.BatchEpisodes, func(_ int, s *tracescope.Stream) error {
		_, err := app.Append(s)
		return err
	})
	if err != nil {
		return err
	}
	b.dir, b.corpus = dir, nil
	if resident {
		b.corpus, err = tracescope.ReadCorpusDir(dir)
	}
	return err
}

// repeatSetup runs setup reps times, each into a fresh directory, keeps
// the last and returns every duration.
func repeatSetup(r *run, setup func(dir string) error) ([]float64, error) {
	var times []float64
	for i := 0; i < r.sz.SetupReps; i++ {
		dir := filepath.Join(r.dir, fmt.Sprintf("setup-%d", i))
		t0 := time.Now()
		if err := setup(dir); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i > 0 {
			if err := os.RemoveAll(filepath.Join(r.dir, fmt.Sprintf("setup-%d", i-1))); err != nil {
				return nil, err
			}
		}
	}
	return times, nil
}

// dirBytes sums the sizes of the regular files directly in dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total, nil
}

// measure records the corpus's shape once set-up is over.
func (b *batch) measure() error {
	ds, err := tracescope.OpenCorpusDir(b.dir)
	if err != nil {
		return err
	}
	b.streams, b.instances, b.events = ds.NumStreams(), ds.NumInstances(), ds.NumEvents()
	present := make(map[string]bool)
	for _, sc := range ds.Scenarios() {
		present[sc.Name] = true
	}
	for _, name := range tracescope.SelectedScenarios() {
		if present[name] { // a small corpus may lack one
			b.scenarios = append(b.scenarios, name)
		}
	}
	b.fileBytes = make([]int64, b.streams)
	for i := range b.fileBytes {
		info, err := os.Stat(filepath.Join(b.dir, ds.StreamMeta(i).File))
		if err != nil {
			return err
		}
		b.fileBytes[i] = info.Size()
	}
	b.diskBytes, err = dirBytes(b.dir)
	return err
}

func runBatch(r *run, resident bool) error {
	b := &batch{r: r}
	setups, err := repeatSetup(r, func(dir string) error { return b.setup(dir, resident) })
	if err != nil {
		return err
	}
	if err := b.measure(); err != nil {
		return err
	}

	// The reference always takes the out-of-core path at one worker, so
	// that batch_resident is checked against batch_cold's path on every
	// run and neither workload's memory bound is spoilt by the oracle.
	ref, err := b.pass(1, false, nil, 0)
	if err != nil {
		return fmt.Errorf("reference pass: %w", err)
	}
	r.reportSHA = ref.sha
	sameReport := func(what string, pr passResult) {
		r.check(pr.sha == ref.sha, "%s report %s differs from the workers=1 reference %s", what, pr.sha, ref.sha)
	}
	if r.traced {
		return b.traced(resident, sameReport)
	}

	warm, err := b.pass(r.workers, resident, nil, 0)
	if err != nil {
		return fmt.Errorf("warm-up pass: %w", err)
	}
	sameReport("warm-up", warm)

	var totals, cpus, opens, queries []float64
	begin := time.Now()
	for n := 0; n < r.sz.MinPasses || time.Since(begin).Seconds() < r.seconds; n++ {
		pr, err := b.pass(r.workers, resident, nil, n)
		if err != nil {
			return fmt.Errorf("pass %d: %w", n, err)
		}
		sameReport(fmt.Sprintf("pass %d", n), pr)
		totals = append(totals, pr.total*1e3)
		cpus = append(cpus, pr.cpu*1e3)
		opens = append(opens, pr.open*1e3)
		queries = append(queries, pr.causality*1e3)
	}
	wall := time.Since(begin).Seconds()

	r.set("setup_s", median(setups), len(setups))
	r.set("request_p50_ms", median(totals), len(totals))
	r.set("request_p90_ms", stats.Percentile(totals, 90), len(totals))
	r.set("query_p50_ms", median(queries), len(queries))
	r.set("query_p90_ms", stats.Percentile(queries, 90), len(queries))
	r.set("throughput_per_s", float64(b.instances*len(totals))/wall, len(totals))
	r.set("cpu_ms_per_request", median(cpus), len(cpus))
	r.set("open_ms", median(opens), len(opens))
	r.set("peak_rss_mb", peakRSSMB(), 1)
	r.set("corpus_bytes_per_event", float64(b.diskBytes)/float64(b.events), 1)
	return nil
}

// traced produces the per-layer metrics: a workers=1 core pass whose
// decodes and cache counters are measured where they happen, traced and
// untraced passes at full width for the tracing overhead, an impact-only
// worker sweep for the engine, and a single-threaded staged replay that
// times each layer's public functions and must reproduce the report.
func (b *batch) traced(resident bool, sameReport func(string, passResult)) error {
	r := b.r
	var before, after [2]metrics.Sample
	for i, name := range []string{"/gc/heap/allocs:objects", "/cpu/classes/gc/total:cpu-seconds"} {
		before[i].Name, after[i].Name = name, name
	}
	metrics.Read(before[:])
	coreMark := r.log.mark()
	core, err := b.pass(1, resident, r.log, 0)
	if err != nil {
		return fmt.Errorf("core pass: %w", err)
	}
	metrics.Read(after[:])
	sameReport("core", core)
	decodes := r.log.durations("trace.decode", coreMark)
	decodeS := stats.Sum(decodes)
	indexOpenS := stats.Sum(r.log.durations("trace.index_open", coreMark))

	r.set("trace.index_open_s", indexOpenS, 1)
	r.set("trace.decode_s", decodeS, len(decodes))
	r.set("trace.decode_count", float64(len(decodes)), 1)
	r.set("trace.decodes_per_stream", ratio(float64(len(decodes)), float64(b.streams)), 1)
	r.set("trace.decode_mb_per_s", ratio(float64(core.decodeBytes)/1e6, decodeS), len(decodes))
	r.set("trace.cache_hit_ratio", ratio(float64(core.cache.Hits), float64(core.cache.Hits+core.cache.Misses)), 1)
	r.set("trace.cache_evictions", float64(core.cache.Evictions), 1)
	r.set("impact.graphs_built", float64(core.graphMisses), 1)
	r.set("impact.graphs_per_instance", ratio(float64(core.graphMisses), float64(b.instances)), 1)
	r.set("impact.graph_cache_hit_ratio", ratio(float64(core.graphHits), float64(core.graphHits+core.graphMisses)), 1)
	r.set("proc.allocs_per_instance", ratio(float64(after[0].Value.Uint64()-before[0].Value.Uint64()), float64(b.instances)), 1)
	r.set("proc.gc_cpu_share", ratio(after[1].Value.Float64()-before[1].Value.Float64(), core.cpu), 1)

	var tracedT, plainT, impacts, causalities []float64
	for n := 0; n < r.sz.TracedPasses; n++ {
		tp, err := b.pass(r.workers, resident, r.log, n+1)
		if err != nil {
			return fmt.Errorf("traced pass %d: %w", n, err)
		}
		sameReport(fmt.Sprintf("traced pass %d", n), tp)
		pp, err := b.pass(r.workers, resident, nil, n+1)
		if err != nil {
			return fmt.Errorf("untraced pass %d: %w", n, err)
		}
		sameReport(fmt.Sprintf("untraced pass %d", n), pp)
		tracedT, plainT = append(tracedT, tp.total), append(plainT, pp.total)
		impacts, causalities = append(impacts, tp.impact), append(causalities, tp.causality)
	}
	r.set("core.impact_s", median(impacts), len(impacts))
	r.set("core.causality_s", median(causalities), len(causalities))
	r.set("bench.trace_overhead_share", ratio(median(tracedT)-median(plainT), median(plainT)), len(plainT))

	var w1, wn, cpu1, cpun []float64
	for n := 0; n < r.sz.TracedPasses; n++ {
		wall, cpu, err := b.impactOnly(1, resident)
		if err != nil {
			return err
		}
		w1, cpu1 = append(w1, wall), append(cpu1, cpu)
		if wall, cpu, err = b.impactOnly(r.workers, resident); err != nil {
			return err
		}
		wn, cpun = append(wn, wall), append(cpun, cpu)
	}
	r.set("engine.impact_w1_s", median(w1), len(w1))
	r.set("engine.impact_wn_s", median(wn), len(wn))
	r.set("engine.speedup", ratio(median(w1), median(wn)), len(wn))
	r.set("engine.cpu_ratio", ratio(median(cpun), median(cpu1)), len(cpun))
	r.set("engine.shards", float64(engine.Options{Workers: r.workers}.TargetShards()), 1)

	stagedMark := r.log.mark()
	sha, err := b.staged(resident)
	if err != nil {
		return fmt.Errorf("staged replay: %w", err)
	}
	r.check(sha == core.sha, "staged replay report %s differs from the facade's %s", sha, core.sha)
	stage := func(name string) (float64, int) {
		d := r.log.durations(name, stagedMark)
		return stats.Sum(d), len(d)
	}
	newBuilderS, builders := stage("waitgraph.new_builder")
	instanceS, graphs := stage("waitgraph.instance")
	foldS, folds := stage("impact.fold")
	addS, adds := stage("awg.add")
	r.set("waitgraph.build_s", newBuilderS+instanceS, graphs)
	r.set("waitgraph.graphs", float64(graphs), 1)
	r.set("waitgraph.build_us_per_graph", ratio((newBuilderS+instanceS)*1e6, float64(graphs)), graphs)
	r.set("impact.fold_s", foldS, folds)
	r.set("awg.add_s", addS, adds)
	once := 0.0 // stages that run once per scenario in the core pass as in the replay
	for _, name := range []string{"awg.merge", "awg.finish", "mining.enumerate", "mining.select", "mining.lift", "report.render"} {
		s, n := stage(name)
		r.set(name+"_s", s, n)
		once += s
	}

	// Attribution: each staged unit cost times how often the core pass
	// paid it. The core pass builds a Wait-Graph builder per decode (per
	// stream when nothing is ever evicted), a graph per graph-cache miss,
	// folds every instance once for impact and every slow instance once
	// more for its class, and aggregates every classed instance.
	builderCount := float64(len(decodes))
	if resident {
		builderCount = float64(b.streams)
	}
	attributed := indexOpenS + decodeS + once +
		ratio(newBuilderS, float64(builders))*builderCount +
		ratio(instanceS, float64(graphs))*float64(core.graphMisses) +
		ratio(foldS, float64(folds))*float64(b.instances+core.slow) +
		ratio(addS, float64(adds))*float64(core.classed)
	r.set("core.attributed_share", ratio(attributed, core.total), 1)
	r.set("core.unattributed_s", core.total-attributed, 1)
	return nil
}

// impactOnly times one Impact call over a fresh source and analyzer.
func (b *batch) impactOnly(workers int, resident bool) (wall, cpu float64, err error) {
	src, _, _, err := b.source(resident, nil, -1, 0)
	if err != nil {
		return 0, 0, err
	}
	an := tracescope.NewAnalyzer(src, tracescope.WithWorkers(workers))
	cpu0, t0 := cpuSeconds(), time.Now()
	an.Impact(tracescope.AllDrivers(), "")
	return time.Since(t0).Seconds(), cpuSeconds() - cpu0, an.Err()
}

// staged replays the analysis on one goroutine through each layer's
// public functions, a span around every call, and returns the hash of
// the report it arrives at.
func (b *batch) staged(resident bool) (string, error) {
	log := b.r.log
	root := log.start("staged", -1, 0)
	defer log.end(root)
	var src tracescope.Source = b.corpus
	if !resident {
		ds, err := tracescope.OpenCorpusDir(b.dir)
		if err != nil {
			return "", err
		}
		src = ds
	}

	type class struct {
		tf, ts     tracescope.Duration
		slow, fast *awg.Aggregator
		n          int
		nslow      int
		nfast      int
	}
	filter := tracescope.AllDrivers()
	fc := trace.NewFilterCache(filter)
	classes := make(map[string]*class)
	for _, name := range tracescope.SelectedScenarios() {
		tf, ts, _ := tracescope.Thresholds(name)
		classes[name] = &class{
			tf: tf, ts: ts,
			slow: awg.NewAggregator(filter, awg.Options{}),
			fast: awg.NewAggregator(filter, awg.Options{}),
		}
	}
	global := impact.NewPartial()
	nodes := 0
	for si := 0; si < src.NumStreams(); si++ {
		s, err := src.Stream(si)
		if err != nil {
			return "", err
		}
		sp := log.start("waitgraph.new_builder", root, si)
		bl := waitgraph.NewBuilder(s, si, waitgraph.Options{})
		log.end(sp)
		for _, in := range s.Instances {
			sp = log.start("waitgraph.instance", root, si)
			g := bl.Instance(in)
			log.end(sp)
			nodes += g.NumNodes()
			sp = log.start("impact.fold", root, si)
			global.AddGraph(g, fc)
			log.end(sp)
			c := classes[in.Scenario]
			if c == nil {
				continue
			}
			c.n++
			ag := (*awg.Aggregator)(nil)
			switch d := in.Duration(); {
			case d < c.tf:
				ag = c.fast
				c.nfast++
			case d > c.ts:
				ag = c.slow
				c.nslow++
			}
			if ag != nil {
				sp = log.start("awg.add", root, si)
				ag.Add(g)
				log.end(sp)
			}
		}
	}
	b.r.set("waitgraph.nodes", float64(nodes), 1)

	finish := func(part *awg.Aggregator, id int) *awg.Graph {
		final := awg.NewAggregator(filter, awg.DefaultOptions())
		sp := log.start("awg.merge", root, id)
		final.Merge(part.Partial())
		log.end(sp)
		sp = log.start("awg.finish", root, id)
		defer log.end(sp)
		return final.Finish()
	}
	var scenarios []scenarioReport
	awgNodes, metas, patterns := 0, 0, 0
	for i, name := range tracescope.SelectedScenarios() {
		c := classes[name]
		if c.n == 0 {
			continue
		}
		rep := scenarioReport{name: name, instances: c.n, fast: c.nfast, slow: c.nslow}
		if c.nslow > 0 {
			slowAWG, fastAWG := finish(c.slow, i), finish(c.fast, i)
			params := mining.Params{Tfast: c.tf, Tslow: c.ts}
			params.ApplyDefaults()
			sp := log.start("mining.enumerate", root, i)
			slowMetas, _ := mining.EnumerateMetas(slowAWG, params.K, params.MaxSegments)
			fastMetas, _ := mining.EnumerateMetas(fastAWG, params.K, params.MaxSegments)
			log.end(sp)
			sp = log.start("mining.select", root, i)
			contrasts := mining.DiscoverContrasts(slowMetas, fastMetas, c.tf, c.ts)
			log.end(sp)
			sp = log.start("mining.lift", root, i)
			rep.patterns = mining.DiscoverPatterns(slowAWG, contrasts)
			log.end(sp)
			rep.contrasts, rep.slowAWG = len(contrasts), slowAWG
			awgNodes += slowAWG.NumNodes() + fastAWG.NumNodes()
			metas += len(slowMetas) + len(fastMetas)
			patterns += len(rep.patterns)
		}
		scenarios = append(scenarios, rep)
	}
	b.r.set("awg.nodes", float64(awgNodes), 1)
	b.r.set("mining.metas", float64(metas), 1)
	b.r.set("mining.patterns", float64(patterns), 1)

	sp := log.start("report.render", root, 0)
	h := sha256.New()
	render(h, global.Metrics, scenarios)
	log.end(sp)
	return hex.EncodeToString(h.Sum(nil)), nil
}
