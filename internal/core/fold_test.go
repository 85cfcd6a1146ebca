package core

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"tracescope/internal/impact"
	"tracescope/internal/mining"
	"tracescope/internal/scenario"
	"tracescope/internal/trace"
)

// countingSource counts the stream fetches that reach the source under
// it — placed below a CachedSource, the decodes; over a Corpus, the
// fetches — and remembers which streams were asked for.
type countingSource struct {
	trace.Source
	mu      sync.Mutex
	fetches int
	streams map[int]bool
}

func (c *countingSource) Stream(i int) (*trace.Stream, error) {
	c.mu.Lock()
	c.fetches++
	if c.streams == nil {
		c.streams = make(map[int]bool)
	}
	c.streams[i] = true
	c.mu.Unlock()
	return c.Source.Stream(i)
}

// take returns the fetches counted and the streams fetched since the
// last take.
func (c *countingSource) take() (int, []int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, seen := c.fetches, make([]int, 0, len(c.streams))
	for i := range c.streams {
		seen = append(seen, i)
	}
	sort.Ints(seen)
	c.fetches, c.streams = 0, nil
	return n, seen
}

// streamsOf lists the streams the index says hold the scenario.
func streamsOf(src trace.Source, name string) []int {
	var out []int
	for _, ref := range src.InstancesOf(name) {
		if n := len(out); n == 0 || out[n-1] != ref.Stream {
			out = append(out, ref.Stream)
		}
	}
	return out
}

func catalogueCausality(t *testing.T, an *Analyzer, name string) *CausalityResult {
	t.Helper()
	tf, ts, ok := scenario.Thresholds(name)
	if !ok {
		t.Fatalf("no thresholds for %q", name)
	}
	res, err := an.Causality(CausalityConfig{Scenario: name, Tfast: tf, Tslow: ts})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sameResult compares two causality results in full: the slow-class AWG
// by its rendered bytes, everything else by value.
func sameResult(t *testing.T, label string, got, want *CausalityResult) {
	t.Helper()
	if g, w := renderAWG(t, got.SlowAWG), renderAWG(t, want.SlowAWG); g != w {
		t.Errorf("%s: slow-class AWG differs:\n%s\n--- want ---\n%s", label, g, w)
	}
	g, w := *got, *want
	g.SlowAWG, w.SlowAWG = nil, nil
	if !reflect.DeepEqual(g, w) {
		t.Errorf("%s: result differs:\n got %+v\nwant %+v", label, g, w)
	}
}

// writeReport renders what traceanalyze prints of a pass: the impact
// line, then each scenario's class sizes, patterns and slow-class AWG.
func writeReport(t *testing.T, m impact.Metrics, results []*CausalityResult) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "impact: %v\n", m)
	for _, res := range results {
		fmt.Fprintf(&b, "%s: instances=%d fast=%d slow=%d contrasts=%d patterns=%d\n",
			res.Scenario, res.Instances, res.FastCount, res.SlowCount, res.NumContrasts, len(res.Patterns))
		for i, p := range res.Patterns {
			fmt.Fprintf(&b, "#%d avg=%v C=%v N=%d maxExec=%v %s\n", i+1, p.AvgC(), p.C, p.N, p.MaxExec, p.Tuple)
		}
		b.WriteString(renderAWG(t, res.SlowAWG))
	}
	return b.String()
}

// TestNineCallsMatchIncremental: the traceanalyze-style pass — Impact
// plus one Causality per selected scenario — over an Analyzer configured
// with the catalogue thresholds equals, in report bytes and in every
// field of every result, an Incremental fed the same corpus stream by
// stream; it decodes each stream once and builds each instance's graph
// once, at any worker count and cache limit, in memory and out of core.
func TestNineCallsMatchIncremental(t *testing.T) {
	corpus := equivalenceCorpus(t)
	dir := t.TempDir()
	if err := corpus.WriteDir(dir); err != nil {
		t.Fatal(err)
	}

	inc := NewIncremental(IncrementalConfig{Thresholds: scenario.Thresholds})
	for si, s := range corpus.Streams {
		inc.Ingest(si, s)
	}
	var want []*CausalityResult
	for _, name := range scenario.Selected() {
		res, err := inc.Causality(name, mining.Params{})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res)
	}
	wantReport := writeReport(t, inc.Impact(""), want)

	check := func(label string, src trace.Source, counter *countingSource, workers int) {
		t.Helper()
		an := NewAnalyzer(src, WithWorkers(workers), WithThresholds(scenario.Thresholds))
		m := an.Impact(trace.AllDrivers(), "")
		var got []*CausalityResult
		for i, name := range scenario.Selected() {
			res := catalogueCausality(t, an, name)
			sameResult(t, label+"/"+name, res, want[i])
			got = append(got, res)
		}
		if report := writeReport(t, m, got); report != wantReport {
			t.Errorf("%s: report differs from the stream-by-stream Incremental's:\n%s\n--- want ---\n%s", label, report, wantReport)
		}
		if err := an.Err(); err != nil {
			t.Errorf("%s: %v", label, err)
		}
		if n, _ := counter.take(); n != corpus.NumStreams() {
			t.Errorf("%s: nine calls fetched %d streams, want each of %d once", label, n, corpus.NumStreams())
		}
		if built := an.GraphCacheStats().Misses; built != int64(corpus.NumInstances()) {
			t.Errorf("%s: nine calls built %d Wait Graphs, want each of %d once", label, built, corpus.NumInstances())
		}
	}
	for _, workers := range []int{1, 4, 8} {
		mem := &countingSource{Source: corpus}
		check(fmt.Sprintf("memory/workers=%d", workers), mem, mem, workers)
		for _, limit := range []int{1, 0} {
			ds, err := trace.OpenDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			disk := &countingSource{Source: ds}
			check(fmt.Sprintf("dir/workers=%d/cache=%d", workers, limit),
				trace.NewCachedSource(disk, limit), disk, workers)
		}
	}
}

// TestCausalityOwnThresholdsRefolds: a Causality call whose thresholds
// differ from the configured ones is a different configuration — it
// equals a fresh Analyzer configured with those thresholds, and costs
// exactly one more sweep, over the scenario's streams only.
func TestCausalityOwnThresholdsRefolds(t *testing.T) {
	src := &countingSource{Source: equivalenceCorpus(t)}
	name := scenario.AppAccessControl
	tf, ts, _ := scenario.Thresholds(name)
	tf, ts = tf/2, ts*2

	an := NewAnalyzer(src, WithWorkers(2), WithThresholds(scenario.Thresholds))
	an.Impact(trace.AllDrivers(), "")
	if n, _ := src.take(); n != src.NumStreams() {
		t.Fatalf("first fold fetched %d streams, want %d", n, src.NumStreams())
	}
	got, err := an.Causality(CausalityConfig{Scenario: name, Tfast: tf, Tslow: ts})
	if err != nil {
		t.Fatal(err)
	}
	if n, seen := src.take(); n != len(seen) || !slices.Equal(seen, streamsOf(src, name)) {
		t.Errorf("own-threshold call fetched %d streams %v, want one sweep of %v", n, seen, streamsOf(src, name))
	}

	fresh := NewAnalyzer(src, WithWorkers(1), WithThresholds(func(s string) (trace.Duration, trace.Duration, bool) {
		return tf, ts, s == name
	}))
	want, err := fresh.Causality(CausalityConfig{Scenario: name, Tfast: tf, Tslow: ts})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, name, got, want)
	if got.Tfast != tf || got.Tslow != ts {
		t.Errorf("result carries thresholds %v/%v, want the call's %v/%v", got.Tfast, got.Tslow, tf, ts)
	}
	if ref := catalogueCausality(t, NewAnalyzer(src), name); ref.FastCount == got.FastCount && ref.SlowCount == got.SlowCount {
		t.Errorf("halved Tfast and doubled Tslow left the classes at fast=%d slow=%d: thresholds not applied", got.FastCount, got.SlowCount)
	}
}

// TestTwoScenariosTwoFolds: Causality(S1) then Causality(S2) with no
// Impact before them folds twice, never three times — the first over
// S1's streams only, the second over everything, after which every
// call under the configuration is answered from the held fold.
func TestTwoScenariosTwoFolds(t *testing.T) {
	src := &countingSource{Source: equivalenceCorpus(t)}
	s1, s2 := scenario.AppAccessControl, scenario.BrowserTabSwitch
	if len(streamsOf(src, s1)) >= src.NumStreams() {
		t.Fatalf("%s is in every stream: the test needs a scenario that is not", s1)
	}
	an := NewAnalyzer(src, WithWorkers(4), WithThresholds(scenario.Thresholds))
	ref := NewAnalyzer(src.Source, WithWorkers(1), WithThresholds(scenario.Thresholds))
	ref.Impact(trace.AllDrivers(), "")

	sameResult(t, s1, catalogueCausality(t, an, s1), catalogueCausality(t, ref, s1))
	if n, seen := src.take(); n != len(seen) || !slices.Equal(seen, streamsOf(src, s1)) {
		t.Errorf("first call fetched %d streams %v, want %s's streams %v once each", n, seen, s1, streamsOf(src, s1))
	}
	sameResult(t, s2, catalogueCausality(t, an, s2), catalogueCausality(t, ref, s2))
	if n, _ := src.take(); n != src.NumStreams() {
		t.Errorf("second call fetched %d streams, want all %d once each", n, src.NumStreams())
	}
	for _, name := range scenario.Selected() {
		sameResult(t, name, catalogueCausality(t, an, name), catalogueCausality(t, ref, name))
		if got, want := an.Impact(trace.AllDrivers(), name), ref.Impact(trace.AllDrivers(), name); got != want {
			t.Errorf("impact(%s): got %v, want %v", name, got, want)
		}
	}
	if got, want := an.Impact(trace.AllDrivers(), ""), ref.Impact(trace.AllDrivers(), ""); got != want {
		t.Errorf("impact: got %v, want %v", got, want)
	}
	if n, _ := src.take(); n != 0 {
		t.Errorf("calls after the second fold fetched %d streams, want none", n)
	}
}

// TestConcurrentCausalityOneFold: after one Impact over everything, two
// goroutines asking one Analyzer for different scenarios fold nothing
// further and get the answers sequential calls get. CI runs this under
// -race: the fold is built under the Analyzer's mutex and answers mutate
// only clones of its forests.
func TestConcurrentCausalityOneFold(t *testing.T) {
	src := &countingSource{Source: equivalenceCorpus(t)}
	names := []string{scenario.BrowserTabCreate, scenario.WebPageNavigation}
	seq := NewAnalyzer(src.Source, WithWorkers(1), WithThresholds(scenario.Thresholds))
	want := make([]*CausalityResult, len(names))
	for i, name := range names {
		want[i] = catalogueCausality(t, seq, name)
	}

	an := NewAnalyzer(src, WithWorkers(2), WithThresholds(scenario.Thresholds))
	an.Impact(trace.AllDrivers(), "")
	src.take()
	const rounds = 4
	got := make([][rounds]*CausalityResult, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tf, ts, _ := scenario.Thresholds(name)
			for r := 0; r < rounds; r++ {
				res, err := an.Causality(CausalityConfig{Scenario: name, Tfast: tf, Tslow: ts})
				if err != nil {
					t.Error(err)
					return
				}
				got[i][r] = res
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, name := range names {
		for r := 0; r < rounds; r++ {
			sameResult(t, fmt.Sprintf("%s round %d", name, r), got[i][r], want[i])
		}
	}
	if n, _ := src.take(); n != 0 {
		t.Errorf("concurrent calls fetched %d streams, want none: the fold was already held", n)
	}
}
