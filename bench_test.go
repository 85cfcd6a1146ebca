// Benchmarks regenerating every table and figure of the paper's
// evaluation (one Benchmark per experiment of DESIGN.md's index), plus
// ablation benches for the design choices DESIGN.md calls out: stack
// interning, bounded segment enumeration (k), and the non-optimizable
// reduction.
package tracescope_test

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"

	"tracescope"
	"tracescope/internal/awg"
	"tracescope/internal/baseline"
	"tracescope/internal/core"
	"tracescope/internal/experiments"
	"tracescope/internal/mining"
	"tracescope/internal/scenario"
	"tracescope/internal/trace"
	"tracescope/internal/waitgraph"
)

var (
	benchOnce   sync.Once
	benchSuite  *experiments.Suite
	benchCorpus *trace.Corpus
)

// benchSetup builds one moderate corpus shared by every benchmark.
func benchSetup(b *testing.B) *experiments.Suite {
	b.Helper()
	benchOnce.Do(func() {
		benchSuite = experiments.NewSuiteOptions(scenario.Config{Seed: 1, Streams: 12, Episodes: 10})
		benchCorpus = benchSuite.Corpus
	})
	return benchSuite
}

// BenchmarkGenerateCorpus measures trace generation (the workload
// substrate feeding every experiment).
func BenchmarkGenerateCorpus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := tracescope.Generate(tracescope.GenerateConfig{Seed: int64(i), Streams: 2, Episodes: 6})
		if c.NumInstances() == 0 {
			b.Fatal("empty corpus")
		}
	}
}

// BenchmarkHeadlineImpact regenerates the §5.1 headline metrics
// (IAwait/IArun/IAopt, Dwait/Dwaitdist) over the full corpus, on the
// explicit sequential path and on the default shard-and-merge engine
// (GOMAXPROCS workers). Results are identical; only the schedule
// differs.
func BenchmarkHeadlineImpact(b *testing.B) {
	s := benchSetup(b)
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"sequential", 1},
		{"engine", 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				an := core.NewAnalyzer(s.Corpus, core.WithWorkers(bc.workers))
				m := an.Impact(trace.AllDrivers(), "")
				if m.IAwait() <= 0 {
					b.Fatal("degenerate impact")
				}
			}
		})
	}
}

// BenchmarkParallelHeadlineImpact sweeps the engine's worker count on
// the headline impact analysis, for measuring while you work; numbers
// for claims come from bench/ (engine.speedup @ batch_resident).
func BenchmarkParallelHeadlineImpact(b *testing.B) {
	s := benchSetup(b)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// A fresh Analyzer folds afresh; a kept one would answer
				// iteration 2 from the fold it holds.
				an := core.NewAnalyzer(s.Corpus, core.WithWorkers(workers))
				m := an.Impact(trace.AllDrivers(), "")
				if m.IAwait() <= 0 {
					b.Fatal("degenerate impact")
				}
			}
		})
	}
}

// BenchmarkParallelCausality sweeps the engine's worker count on the
// full §4 pipeline for the paper's exemplar scenario.
func BenchmarkParallelCausality(b *testing.B) {
	s := benchSetup(b)
	tf, ts, _ := scenario.Thresholds(scenario.BrowserTabCreate)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				an := core.NewAnalyzer(s.Corpus, core.WithWorkers(workers))
				res, err := an.Causality(core.CausalityConfig{
					Scenario: scenario.BrowserTabCreate, Tfast: tf, Tslow: ts,
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Patterns) == 0 {
					b.Fatal("no patterns")
				}
			}
		})
	}
}

// BenchmarkTable1Classify regenerates Table 1 (instance counts and
// contrast classes for the eight selected scenarios).
func BenchmarkTable1Classify(b *testing.B) {
	benchTable(b, func(s *experiments.Suite) error { _, err := s.Table1(); return err })
}

// BenchmarkTable2Coverage regenerates Table 2 (Driver Cost, ITC, TTC).
func BenchmarkTable2Coverage(b *testing.B) {
	benchTable(b, func(s *experiments.Suite) error { _, err := s.Table2(); return err })
}

// BenchmarkTable3Ranking regenerates Table 3 (top-n% ranking coverages).
func BenchmarkTable3Ranking(b *testing.B) {
	benchTable(b, func(s *experiments.Suite) error { _, err := s.Table3(); return err })
}

// BenchmarkTable4DriverTypes regenerates Table 4 (top-10 patterns by
// driver type).
func BenchmarkTable4DriverTypes(b *testing.B) {
	benchTable(b, func(s *experiments.Suite) error { _, err := s.Table4(); return err })
}

func benchTable(b *testing.B, fn func(*experiments.Suite) error) {
	b.Helper()
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh suite over the shared corpus, so neither the suite's
		// result memo nor its analyzer's held fold hides the work.
		fresh := experiments.NewSuiteFromSource(s.Cfg, s.Corpus)
		if err := fn(fresh); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure1Replay regenerates the §2.2 motivating case and its
// thread-level snapshot (Figure 1).
func BenchmarkFigure1Replay(b *testing.B) {
	s := benchSetup(b)
	for i := 0; i < b.N; i++ {
		if err := s.Figure1(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2AWG regenerates the motivating case's Aggregated Wait
// Graph (Figure 2).
func BenchmarkFigure2AWG(b *testing.B) {
	s := benchSetup(b)
	for i := 0; i < b.N; i++ {
		if err := s.Figure2(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWaitGraphBuild measures Wait-Graph construction for every
// instance of the corpus (the §3.1 data abstraction).
func BenchmarkWaitGraphBuild(b *testing.B) {
	s := benchSetup(b)
	refs := s.Corpus.InstancesOf("")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		builders := buildAll(s.Corpus)
		nodes := 0
		for _, ref := range refs {
			g := builders[ref.Stream].Instance(s.Corpus.Streams[ref.Stream].Instances[ref.Instance])
			nodes += len(g.Roots)
		}
		if nodes == 0 {
			b.Fatal("no roots")
		}
	}
}

// BenchmarkCausalityOneScenario measures the full §4 pipeline (classify,
// aggregate, mine, rank) for the paper's exemplar scenario.
func BenchmarkCausalityOneScenario(b *testing.B) {
	s := benchSetup(b)
	tf, ts, _ := scenario.Thresholds(scenario.BrowserTabCreate)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		an := core.NewAnalyzer(s.Corpus)
		res, err := an.Causality(core.CausalityConfig{
			Scenario: scenario.BrowserTabCreate, Tfast: tf, Tslow: ts,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Patterns) == 0 {
			b.Fatal("no patterns")
		}
	}
}

// BenchmarkAblationSegmentK sweeps the bounded segment length k of the
// meta-pattern enumeration (the paper fixes k=5 and argues bounded
// enumeration loses no patterns).
func BenchmarkAblationSegmentK(b *testing.B) {
	s := benchSetup(b)
	tf, ts, _ := scenario.Thresholds(scenario.WebPageNavigation)
	an := core.NewAnalyzer(s.Corpus)
	for _, k := range []int{1, 2, 3, 5, 7} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := an.Causality(core.CausalityConfig{
					Scenario: scenario.WebPageNavigation, Tfast: tf, Tslow: ts,
					Mining: mining.Params{K: k},
				})
				if err != nil {
					b.Fatal(err)
				}
				_ = res
			}
		})
	}
}

// BenchmarkAblationReduce compares aggregating and mining a slow class
// with and without the non-optimizable reduction of Algorithm 1, at the
// layer that owns it: awg.Aggregate, then meta-pattern enumeration.
func BenchmarkAblationReduce(b *testing.B) {
	graphs := slowGraphs(b, scenario.BrowserTabSwitch)
	var params mining.Params
	params.ApplyDefaults()
	for _, reduce := range []bool{true, false} {
		name := "reduce=on"
		if !reduce {
			name = "reduce=off"
		}
		b.Run(name, func(b *testing.B) {
			var nodes, metas int
			for i := 0; i < b.N; i++ {
				g := awg.Aggregate(graphs, trace.AllDrivers(), awg.Options{Reduce: reduce})
				m, _ := mining.EnumerateMetas(g, params.K, params.MaxSegments)
				nodes, metas = g.NumNodes(), len(m)
			}
			b.ReportMetric(float64(nodes), "nodes")
			b.ReportMetric(float64(metas), "metas")
		})
	}
}

// BenchmarkAblationStackInterning compares interned stack storage (what
// streams do) against naive per-event string-slice stacks.
func BenchmarkAblationStackInterning(b *testing.B) {
	frames := make([]string, 64)
	for i := range frames {
		frames[i] = fmt.Sprintf("mod%d.sys!Function%d", i%8, i)
	}
	stacks := make([][]string, 256)
	for i := range stacks {
		depth := 3 + i%6
		st := make([]string, depth)
		for j := 0; j < depth; j++ {
			st[j] = frames[(i*7+j*13)%len(frames)]
		}
		stacks[i] = st
	}
	b.Run("interned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := trace.NewStream("bench")
			for j := 0; j < 4096; j++ {
				id := s.InternStackStrings(stacks[j%len(stacks)]...)
				s.AppendEvent(trace.Event{Type: trace.Running, Time: trace.Time(j), Cost: 1, TID: 1, WTID: trace.NoThread, Stack: id})
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		type fatEvent struct {
			trace.Event
			Frames []string
		}
		for i := 0; i < b.N; i++ {
			var events []fatEvent
			for j := 0; j < 4096; j++ {
				src := stacks[j%len(stacks)]
				cp := make([]string, len(src))
				copy(cp, src)
				events = append(events, fatEvent{
					Event:  trace.Event{Type: trace.Running, Time: trace.Time(j), Cost: 1, TID: 1, WTID: trace.NoThread},
					Frames: cp,
				})
			}
			_ = events
		}
	})
}

// BenchmarkDirSourceAnalysis measures the headline impact analysis over
// a directory-backed corpus source against the fully in-memory path.
// The fold sweeps: each worker decodes into buffers it owns, past the
// stream cache, so the cache limit does not enter into it and the two
// differ by the decode alone — in time and, with -benchmem, in B/op (a
// fold allocates for its largest stream, not per stream). The number on
// file is bench/'s batch_cold workload.
func BenchmarkDirSourceAnalysis(b *testing.B) {
	s := benchSetup(b)
	dir := b.TempDir()
	if err := s.Corpus.WriteDir(dir); err != nil {
		b.Fatal(err)
	}
	want := core.NewAnalyzer(s.Corpus).Impact(trace.AllDrivers(), "")

	b.Run("inmemory", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			an := core.NewAnalyzer(s.Corpus)
			if m := an.Impact(trace.AllDrivers(), ""); m != want {
				b.Fatal("in-memory impact diverged")
			}
		}
	})
	b.Run("dir", func(b *testing.B) {
		src, err := trace.OpenDir(dir)
		if err != nil {
			b.Fatal(err)
		}
		cached := trace.NewCachedSource(src, 4)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			an := core.NewAnalyzer(cached)
			if m := an.Impact(trace.AllDrivers(), ""); m != want {
				b.Fatal("out-of-core impact diverged")
			}
			if err := an.Err(); err != nil {
				b.Fatal(err)
			}
		}
		if st := cached.Stats(); st.Size != 0 || st.Evictions != 0 {
			b.Fatalf("the sweeps populated the stream cache: %+v", st)
		}
	})
}

// BenchmarkCorpusCodec measures the binary round-trip of a stream.
func BenchmarkCorpusCodec(b *testing.B) {
	s := benchSetup(b)
	stream := s.Corpus.Streams[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := stream.WriteBinary(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := trace.ReadBinary(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselineProfile measures the gprof-style call-graph baseline.
func BenchmarkBaselineProfile(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := baseline.CallGraphProfile(s.Corpus)
		if err != nil {
			b.Fatal(err)
		}
		if p.TotalCPU == 0 {
			b.Fatal("no CPU")
		}
	}
}

// BenchmarkBaselineContention measures the single-lock contention
// baseline.
func BenchmarkBaselineContention(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := baseline.LockContention(s.Corpus, trace.AllDrivers())
		if err != nil {
			b.Fatal(err)
		}
		if r.TotalWait == 0 {
			b.Fatal("no waits")
		}
	}
}

// buildAll constructs a Wait-Graph builder for every stream of a corpus.
func buildAll(c *trace.Corpus) []*waitgraph.Builder {
	out := make([]*waitgraph.Builder, len(c.Streams))
	for i, s := range c.Streams {
		out[i] = waitgraph.NewBuilder(s, i, waitgraph.Options{})
	}
	return out
}

// slowGraphs builds the Wait Graph of every slow-class instance of a
// scenario in the shared benchmark corpus.
func slowGraphs(b *testing.B, name string) []*waitgraph.Graph {
	s := benchSetup(b)
	_, ts, _ := scenario.Thresholds(name)
	builders := buildAll(s.Corpus)
	var graphs []*waitgraph.Graph
	for _, ref := range s.Corpus.InstancesOf(name) {
		in := s.Corpus.Streams[ref.Stream].Instances[ref.Instance]
		if in.Duration() > ts {
			graphs = append(graphs, builders[ref.Stream].Instance(in))
		}
	}
	return graphs
}

// BenchmarkAWGAggregate measures Algorithm 1 over the slow class of the
// heaviest scenario.
func BenchmarkAWGAggregate(b *testing.B) {
	graphs := slowGraphs(b, scenario.WebPageNavigation)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := awg.Aggregate(graphs, trace.AllDrivers(), awg.DefaultOptions())
		if g.NumNodes() == 0 {
			b.Fatal("empty AWG")
		}
	}
}

// BenchmarkBaselineStackMine measures the StackMine-style costly-stack
// baseline.
func BenchmarkBaselineStackMine(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := baseline.MineStacks(s.Corpus, trace.AllDrivers(), 3)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Patterns) == 0 {
			b.Fatal("no patterns")
		}
	}
}

// BenchmarkLocatePattern measures the pattern→instance drill-down.
func BenchmarkLocatePattern(b *testing.B) {
	s := benchSetup(b)
	an := core.NewAnalyzer(s.Corpus)
	tf, ts, _ := scenario.Thresholds(scenario.WebPageNavigation)
	res, err := an.Causality(core.CausalityConfig{
		Scenario: scenario.WebPageNavigation, Tfast: tf, Tslow: ts,
	})
	if err != nil {
		b.Fatal(err)
	}
	if len(res.Patterns) == 0 {
		b.Skip("no patterns at this corpus size")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		occ := an.LocatePattern(res, res.Patterns[0], nil, 8)
		if len(occ) == 0 {
			b.Fatal("pattern not locatable")
		}
	}
}
