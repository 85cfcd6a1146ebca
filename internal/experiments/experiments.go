// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) from a generated corpus: the §5.1 headline impact
// metrics, Tables 1–4, Figures 1–2, the §5.2.2 reduction accounting, the
// §5.2.4 hard-fault case, and the baseline comparisons of §6. The
// cmd/experiments binary and the repository's benchmarks both drive this
// package.
package experiments

import (
	"bytes"
	"fmt"
	"io"
	"sort"

	"tracescope/internal/awg"
	"tracescope/internal/baseline"
	"tracescope/internal/core"
	"tracescope/internal/drivers"
	"tracescope/internal/impact"
	"tracescope/internal/report"
	"tracescope/internal/scenario"
	"tracescope/internal/stats"
	"tracescope/internal/trace"
	"tracescope/internal/waitgraph"
)

// Suite holds a corpus and the analyzer over it. The analyzer memoises
// each scenario's causality result, so rendering several tables shares
// the mining work, and it is configured with the catalogue
// thresholds, so the whole evaluation reads at most two folds of the
// corpus (one, when it starts with Headline). The corpus may be
// in-memory (Corpus) or an out-of-core source (Source); exactly one must
// be set, and in-memory suites leave Source nil.
type Suite struct {
	Cfg    scenario.Config
	Corpus *trace.Corpus
	Source trace.Source
	An     *core.Analyzer
}

// NewSuite generates the corpus and indexes it with default analysis
// options.
func NewSuite(cfg scenario.Config) *Suite {
	return NewSuiteOptions(cfg)
}

// NewSuiteOptions generates the corpus and indexes it with the given
// analysis options (e.g. a fixed worker count for the shard-and-merge
// engine).
func NewSuiteOptions(cfg scenario.Config, opts ...core.Option) *Suite {
	corpus := scenario.Generate(cfg)
	return &Suite{
		Cfg:    cfg,
		Corpus: corpus,
		An:     newAnalyzer(corpus, opts),
	}
}

// newAnalyzer configures the suite's analyzer with the catalogue
// thresholds every Suite.Causality call uses (opts may override them).
func newAnalyzer(src trace.Source, opts []core.Option) *core.Analyzer {
	opts = append([]core.Option{core.WithThresholds(scenario.Thresholds)}, opts...)
	return core.NewAnalyzer(src, opts...)
}

// NewSuiteFromSource indexes an existing corpus source (typically a
// cached DirSource for out-of-core runs). Cfg is used only for
// labelling; pass the config the corpus was generated with, or a zero
// value for externally produced corpora.
func NewSuiteFromSource(cfg scenario.Config, src trace.Source, opts ...core.Option) *Suite {
	s := &Suite{
		Cfg:    cfg,
		Source: src,
		An:     newAnalyzer(src, opts),
	}
	if c, ok := src.(*trace.Corpus); ok {
		s.Corpus = c
	}
	return s
}

// src returns the corpus source backing the suite.
func (s *Suite) src() trace.Source {
	if s.Source != nil {
		return s.Source
	}
	return s.Corpus
}

// Causality runs the causality analysis for one selected scenario with
// its catalogue thresholds. Every table asks it of the same fold, so the
// Analyzer answers a repeated scenario from its memo (and the result is
// shared: read-only).
func (s *Suite) Causality(name string) (*core.CausalityResult, error) {
	tfast, tslow, ok := scenario.Thresholds(name)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown scenario %q", name)
	}
	return s.An.Causality(core.CausalityConfig{
		Scenario: name, Tfast: tfast, Tslow: tslow,
	})
}

// Headline runs the §5.1 impact analysis over all instances with the
// "*.sys" filter and returns the metrics plus paper-vs-measured records.
func (s *Suite) Headline() (impact.Metrics, []report.Comparison) {
	m := s.An.Impact(trace.AllDrivers(), "")
	band := func(v, lo, hi float64) bool { return v >= lo && v <= hi }
	comps := []report.Comparison{
		{
			Experiment: "§5.1", Metric: "IAwait",
			Paper: "36.4%", Measured: report.Percent(m.IAwait()),
			ShapeHolds: band(m.IAwait(), 0.15, 0.65),
			Comment:    "driver waits are a non-trivial share of scenario time",
		},
		{
			Experiment: "§5.1", Metric: "IArun",
			Paper: "1.6%", Measured: report.Percent(m.IArun()),
			ShapeHolds: m.IArun() < 0.10 && m.IAwait() > 8*m.IArun(),
			Comment:    "drivers do little computation; waiting dominates CPU",
		},
		{
			Experiment: "§5.1", Metric: "IAopt",
			Paper: "26.0%", Measured: report.Percent(m.IAopt()),
			ShapeHolds: m.IAopt() > 0.05 && m.IAopt() < m.IAwait(),
			Comment:    "cost propagation introduces a large reducible share",
		},
		{
			Experiment: "§5.1", Metric: "Dwait/Dwaitdist",
			Paper: "3.5", Measured: fmt.Sprintf("%.2f", m.WaitDistinctRatio()),
			ShapeHolds: m.WaitDistinctRatio() > 1.5,
			Comment:    "a distinct driver wait propagates into multiple instances",
		},
	}
	return m, comps
}

// Table1 reports the selected scenarios' instance counts and contrast
// classes.
func (s *Suite) Table1() (*report.Table, error) {
	t := &report.Table{
		Title:  "Table 1: Selected Scenarios",
		Header: []string{"Scenario", "#Instances", "in {I}fast", "in {I}slow"},
	}
	var total, fast, slow int
	for _, name := range scenario.Selected() {
		res, err := s.Causality(name)
		if err != nil {
			return nil, err
		}
		t.AddRow(name, fmt.Sprint(res.Instances), fmt.Sprint(res.FastCount), fmt.Sprint(res.SlowCount))
		total += res.Instances
		fast += res.FastCount
		slow += res.SlowCount
	}
	t.AddRow("Total", fmt.Sprint(total), fmt.Sprint(fast), fmt.Sprint(slow))
	return t, nil
}

// Table2 reports Driver Cost, ITC, and TTC per scenario.
func (s *Suite) Table2() (*report.Table, error) {
	t := &report.Table{
		Title:  "Table 2: Impactful-Time and Total-Time Coverages",
		Header: []string{"Scenario", "Driver Cost", "ITC", "TTC"},
		Note:   "paper averages: driver cost 54.2%, ITC 24.9%, TTC 36.0%",
	}
	var dc, itc, ttc float64
	n := 0
	for _, name := range scenario.Selected() {
		res, err := s.Causality(name)
		if err != nil {
			return nil, err
		}
		t.AddRow(name, report.Percent(res.DriverCostShare), report.Percent(res.ITC), report.Percent(res.TTC))
		dc += res.DriverCostShare
		itc += res.ITC
		ttc += res.TTC
		n++
	}
	t.AddRow("Average", report.Percent(dc/float64(n)), report.Percent(itc/float64(n)), report.Percent(ttc/float64(n)))
	return t, nil
}

// Table3 reports pattern counts and top-10/20/30% ranking coverages.
func (s *Suite) Table3() (*report.Table, error) {
	t := &report.Table{
		Title:  "Table 3: Coverages by Ranking",
		Header: []string{"Scenario", "#Patterns", "10%", "20%", "30%"},
		Note:   "paper averages: 2822 patterns, 47.9%, 80.1%, 95.9%",
	}
	var c10, c20, c30 float64
	var patterns, n int
	for _, name := range scenario.Selected() {
		res, err := s.Causality(name)
		if err != nil {
			return nil, err
		}
		t.AddRow(name, fmt.Sprint(len(res.Patterns)),
			report.Percent(res.TopCoverage(0.10)),
			report.Percent(res.TopCoverage(0.20)),
			report.Percent(res.TopCoverage(0.30)))
		c10 += res.TopCoverage(0.10)
		c20 += res.TopCoverage(0.20)
		c30 += res.TopCoverage(0.30)
		patterns += len(res.Patterns)
		n++
	}
	t.AddRow("Average", fmt.Sprint(patterns/n),
		report.Percent(c10/float64(n)), report.Percent(c20/float64(n)), report.Percent(c30/float64(n)))
	return t, nil
}

// Table4 categorises each scenario's top-10 patterns by the driver types
// appearing in their signatures.
func (s *Suite) Table4() (*report.Table, error) {
	types := drivers.AllTypes()
	header := []string{"Scenario"}
	for _, ty := range types {
		header = append(header, ty.String())
	}
	t := &report.Table{
		Title:  "Table 4: Top-10 Patterns Categorized by Driver Types",
		Header: header,
		Note:   "cells count top-10 patterns containing each driver type",
	}
	for _, name := range scenario.Selected() {
		res, err := s.Causality(name)
		if err != nil {
			return nil, err
		}
		var counts [drivers.NumTypes]int
		top := res.Patterns
		if len(top) > 10 {
			top = top[:10]
		}
		for _, p := range top {
			membership := drivers.TypesOfSignatures(p.Tuple.Signatures())
			for ti, present := range membership {
				if present {
					counts[ti]++
				}
			}
		}
		row := []string{name}
		for _, ty := range types {
			cell := "–"
			if counts[ty] > 0 {
				cell = fmt.Sprint(counts[ty])
			}
			row = append(row, cell)
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Figure1 replays the §2.2 motivating case and renders the thread-level
// snapshot plus the instance outcome.
func (s *Suite) Figure1(w io.Writer) error {
	stream := scenario.MotivatingCase()
	var tab trace.Instance
	for _, in := range stream.Instances {
		if in.Scenario == scenario.BrowserTabCreate {
			tab = in
		}
	}
	fmt.Fprintf(w, "Figure 1: cost propagation across three drivers (replayed)\n")
	fmt.Fprintf(w, "BrowserTabCreate took %v (paper: over 800ms)\n\n", tab.Duration())
	return report.WriteThreadSnapshot(w, stream, 0, trace.Time(stream.Duration()), 4)
}

// Figure2 aggregates the motivating case's BrowserTabCreate Wait Graph
// into an Aggregated Wait Graph and renders it.
func (s *Suite) Figure2(w io.Writer) error {
	stream := scenario.MotivatingCase()
	b := waitgraph.NewBuilder(stream, 0, waitgraph.Options{})
	var graphs []*waitgraph.Graph
	for _, in := range stream.Instances {
		graphs = append(graphs, b.Instance(in))
	}
	g := awg.Aggregate(graphs, trace.AllDrivers(), awg.DefaultOptions())
	fmt.Fprintln(w, "Figure 2: Aggregated Wait Graph of the motivating case")
	return g.WriteText(w, 10)
}

// Reduction reports per-scenario non-optimizable shares (§5.2.2; the
// paper cites 66.6% for BrowserTabSwitch).
func (s *Suite) Reduction() (*report.Table, error) {
	t := &report.Table{
		Title:  "§5.2.2: Non-optimizable hardware-only portions removed by ReduceAWG",
		Header: []string{"Scenario", "Removed", "Kept"},
		Note:   "paper cites 66.6% removed for BrowserTabSwitch",
	}
	for _, name := range scenario.Selected() {
		res, err := s.Causality(name)
		if err != nil {
			return nil, err
		}
		t.AddRow(name, report.Percent(res.ReducedShare), report.Percent(1-res.ReducedShare))
	}
	return t, nil
}

// HardFaultCase looks for the §5.2.4 pattern — graphics.sys joined with
// storage-encryption signatures — in AppNonResponsive, and reports the
// slowest slow-class instance (the paper's exemplar ran 4.73 s).
func (s *Suite) HardFaultCase(w io.Writer) error {
	res, err := s.Causality(scenario.AppNonResponsive)
	if err != nil {
		return err
	}
	found := false
	for i, p := range res.Patterns {
		sigs := p.Tuple.Signatures()
		var hasGraphics, hasSE bool
		for _, sig := range sigs {
			if ty, ok := drivers.TypeOfFrame(sig); ok {
				switch ty {
				case drivers.Graphics:
					hasGraphics = true
				case drivers.StorageEncryption:
					hasSE = true
				}
			}
		}
		if hasGraphics && hasSE {
			fmt.Fprintf(w, "hard-fault pattern found at rank %d/%d (avg %v, N=%d):\n  %s\n",
				i+1, len(res.Patterns), p.AvgC(), p.N, p.Tuple)
			found = true
			break
		}
	}
	if !found {
		fmt.Fprintln(w, "no graphics+encryption pattern in this corpus (hard faults are probabilistic; try more streams)")
	}
	// Slowest AppNonResponsive instance — metadata only, no decoding.
	var worst trace.Duration
	src := s.src()
	for _, ref := range src.InstancesOf(scenario.AppNonResponsive) {
		if d := src.InstanceMeta(ref).Duration(); d > worst {
			worst = d
		}
	}
	fmt.Fprintf(w, "slowest AppNonResponsive instance: %v (paper's exemplar: 4.73s)\n", worst)
	return nil
}

// Baselines contrasts the conventional techniques with the causality
// analysis on the same corpus: the CPU profile cannot see waiting at all,
// and the contention report sees sites in isolation.
func (s *Suite) Baselines(w io.Writer) error {
	src := s.src()
	prof, err := baseline.CallGraphProfile(src)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "call-graph profile: total CPU %v across %d frames (top 8 by cumulative):\n",
		prof.TotalCPU, len(prof.Entries))
	for _, e := range prof.Top(8) {
		fmt.Fprintf(w, "  %-34s self=%-10v cum=%v\n", e.Frame, e.Self, e.Cumulative)
	}
	m := s.An.Impact(trace.AllDrivers(), "")
	fmt.Fprintf(w, "=> the profile accounts for %v CPU while driver waiting alone is %v (%.0fx more)\n\n",
		prof.TotalCPU, m.Dwait, float64(m.Dwait)/float64(max64(int64(prof.TotalCPU), 1)))

	cont, err := baseline.LockContention(src, trace.AllDrivers())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "lock-contention report: total lock wait %v across %d sites (top 8):\n",
		cont.TotalWait, len(cont.Entries))
	for _, e := range cont.Top(8) {
		fmt.Fprintf(w, "  %-34s total=%-10v count=%-6d max=%v\n", e.WaitSig, e.Total, e.Count, e.Max)
	}
	fmt.Fprintf(w, "=> each site is reported in isolation; the chains (e.g. FileTable->MDU->decrypt)\n")
	fmt.Fprintf(w, "   only appear in the causality analysis' Signature Set Tuples\n\n")

	sm, err := baseline.MineStacks(src, trace.AllDrivers(), 3)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "StackMine-style costly stack patterns: %d patterns over %v wait (top 5):\n",
		len(sm.Patterns), sm.TotalWait)
	for _, p := range sm.Top(5) {
		fmt.Fprintf(w, "  cost=%-10v n=%-6d %s\n", p.Cost, p.Count, p)
	}
	fmt.Fprintf(w, "=> within-thread wait stacks only: the unwait side and the running work\n")
	fmt.Fprintf(w, "   behind each wait are invisible (the gap §6 says this paper fills)\n")
	return nil
}

// ImpactByScenario reports the step-one metrics per selected scenario —
// the "different scopes" workflow of §2.3.
func (s *Suite) ImpactByScenario() (*report.Table, error) {
	t := &report.Table{
		Title:  "Impact analysis per scenario (filter *.sys)",
		Header: []string{"Scenario", "IAwait", "IArun", "IAopt", "Dwait/Dwaitdist"},
	}
	for _, name := range scenario.Selected() {
		m := s.An.Impact(trace.AllDrivers(), name)
		t.AddRow(name, report.Percent(m.IAwait()), report.Percent(m.IArun()),
			report.Percent(m.IAopt()), fmt.Sprintf("%.2f", m.WaitDistinctRatio()))
	}
	return t, nil
}

// Components renders the per-driver impact breakdown.
func (s *Suite) Components() (*report.Table, error) {
	t := &report.Table{
		Title:  "Per-driver impact (top-level wait and CPU time per module)",
		Header: []string{"module", "Dwait", "Drun"},
	}
	for _, ci := range s.An.ImpactByComponent(nil, nil) {
		t.AddRow(ci.Module, ci.Dwait.String(), ci.Drun.String())
	}
	return t, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// ScenarioDurations returns all instance durations of a scenario in
// milliseconds (for distribution inspection).
func (s *Suite) ScenarioDurations(name string) []float64 {
	var out []float64
	src := s.src()
	for _, ref := range src.InstancesOf(name) {
		out = append(out, src.InstanceMeta(ref).Duration().Milliseconds())
	}
	sort.Float64s(out)
	return out
}

// Granularity sweeps the fs.sys/fv.sys lock granularity and measures the
// headline impact at each setting — validating the paper's §2.2 remedy
// ("reducing the granularity of locks is a general principle to alleviate
// such problem"): coarser locks mean more contention, more propagation,
// and a higher IAwait.
func (s *Suite) Granularity() (*report.Table, error) {
	t := &report.Table{
		Title:  "Lock-granularity sweep (fixed fs.sys/fv.sys lock counts)",
		Header: []string{"locks per table", "IAwait", "IAopt", "Dwait/Dwaitdist"},
		Note:   "coarser locking (fewer locks) raises contention and propagation (§2.2)",
	}
	cfg := s.Cfg
	cfg.Streams = s.Cfg.Streams / 3
	if cfg.Streams < 8 {
		cfg.Streams = 8
	}
	for _, locks := range []int{1, 2, 4, 8} {
		cfg.MDULocks = locks
		cfg.FileTableLocks = locks
		sub := scenario.Generate(cfg)
		m := core.NewAnalyzer(sub).Impact(trace.AllDrivers(), "")
		t.AddRow(fmt.Sprint(locks), report.Percent(m.IAwait()), report.Percent(m.IAopt()),
			fmt.Sprintf("%.2f", m.WaitDistinctRatio()))
	}
	return t, nil
}

// Stability runs the headline impact analysis over several independently
// seeded corpora and reports the spread — evidence that the §5.1 shape is
// a property of the workload model, not of one lucky seed.
func (s *Suite) Stability(seeds int) (*report.Table, error) {
	if seeds <= 0 {
		seeds = 5
	}
	t := &report.Table{
		Title:  "Headline stability across seeds",
		Header: []string{"seed", "IAwait", "IArun", "IAopt", "Dwait/Dwaitdist"},
	}
	cfg := s.Cfg
	cfg.Streams = s.Cfg.Streams / 2
	if cfg.Streams < 8 {
		cfg.Streams = 8
	}
	var aw, ar, ao, ratio []float64
	for i := 0; i < seeds; i++ {
		cfg.Seed = s.Cfg.Seed + int64(i)*7919
		m := core.NewAnalyzer(scenario.Generate(cfg)).Impact(trace.AllDrivers(), "")
		t.AddRow(fmt.Sprint(cfg.Seed), report.Percent(m.IAwait()), report.Percent(m.IArun()),
			report.Percent(m.IAopt()), fmt.Sprintf("%.2f", m.WaitDistinctRatio()))
		aw = append(aw, m.IAwait())
		ar = append(ar, m.IArun())
		ao = append(ao, m.IAopt())
		ratio = append(ratio, m.WaitDistinctRatio())
	}
	t.AddRow("mean", report.Percent(stats.Mean(aw)), report.Percent(stats.Mean(ar)),
		report.Percent(stats.Mean(ao)), fmt.Sprintf("%.2f", stats.Mean(ratio)))
	return t, nil
}

// WriteHTML renders the full evaluation as a self-contained HTML report.
func (s *Suite) WriteHTML(w io.Writer) error {
	src := s.src()
	r := &report.HTMLReport{
		Title: "tracescope evaluation report",
		Subtitle: fmt.Sprintf("%d streams, %d scenario instances, %d events, %v recorded (seed %d)",
			src.NumStreams(), src.NumInstances(), src.NumEvents(),
			src.TotalDuration(), s.Cfg.Seed),
	}

	m, comps := s.Headline()
	r.AddMetrics("§5.1 headline impact (filter *.sys)", []report.Metric{
		{Label: "IAwait", Value: report.Percent(m.IAwait()), Note: "paper: 36.4%"},
		{Label: "IArun", Value: report.Percent(m.IArun()), Note: "paper: 1.6%"},
		{Label: "IAopt", Value: report.Percent(m.IAopt()), Note: "paper: 26.0%"},
		{Label: "Dwait/Dwaitdist", Value: fmt.Sprintf("%.2f", m.WaitDistinctRatio()), Note: "paper: 3.5"},
	})
	cmpT := &report.Table{Header: []string{"metric", "paper", "measured", "shape"}}
	for _, c := range comps {
		verdict := "holds"
		if !c.ShapeHolds {
			verdict = "differs"
		}
		cmpT.AddRow(c.Metric, c.Paper, c.Measured, verdict)
	}
	r.AddTable(cmpT)

	for _, build := range []func() (*report.Table, error){
		s.Table1, s.Table2, s.Table3, s.Table4, s.Reduction, s.ImpactByScenario, s.Components,
	} {
		t, err := build()
		if err != nil {
			return err
		}
		r.AddTable(t)
	}

	var buf bytes.Buffer
	if err := s.Figure1(&buf); err != nil {
		return err
	}
	r.AddPre("Figure 1: the §2.2 motivating case (replayed)", buf.String())
	buf.Reset()
	if err := s.Figure2(&buf); err != nil {
		return err
	}
	r.AddPre("Figure 2: Aggregated Wait Graph of the case", buf.String())
	buf.Reset()
	if err := s.HardFaultCase(&buf); err != nil {
		return err
	}
	r.AddPre("§5.2.4: the graphics.sys hard-fault case", buf.String())
	buf.Reset()
	if err := s.Baselines(&buf); err != nil {
		return err
	}
	r.AddPre("§6: baseline comparison", buf.String())

	// Top patterns with the §2.3 narrative for each selected scenario.
	for _, name := range scenario.Selected() {
		res, err := s.Causality(name)
		if err != nil {
			return err
		}
		t := &report.Table{
			Title:  "Top patterns: " + name,
			Header: []string{"#", "avg", "N", "description"},
		}
		for i, p := range res.Patterns {
			if i >= 5 {
				break
			}
			t.AddRow(fmt.Sprint(i+1), p.AvgC().String(), fmt.Sprint(p.N), p.Describe())
		}
		r.AddTable(t)
	}
	return r.Write(w)
}
