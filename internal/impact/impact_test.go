package impact

import (
	"errors"
	"reflect"
	"testing"

	"tracescope/internal/scenario"
	"tracescope/internal/trace"
	"tracescope/internal/waitgraph"
)

// analyzeShard measures filter over refs (nil means every instance): one
// Partial fed by one GraphsOver walk.
func analyzeShard(t testing.TB, src trace.Source, filter *trace.ComponentFilter, refs []trace.InstanceRef) *Partial {
	t.Helper()
	if refs == nil {
		refs = src.InstancesOf("")
	}
	p := NewPartial()
	fc := trace.NewFilterCache(filter)
	err := GraphsOver(src, refs, func(_ trace.InstanceRef, g *waitgraph.Graph, _ bool) { p.AddGraph(g, fc) })
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func analyze(t testing.TB, src trace.Source, filter *trace.ComponentFilter, refs []trace.InstanceRef) Metrics {
	t.Helper()
	return analyzeShard(t, src, filter, refs).Metrics
}

func TestMotivatingCaseMetrics(t *testing.T) {
	s := scenario.MotivatingCase()
	c := trace.NewCorpus(s)
	m := analyze(t, c, trace.AllDrivers(), nil)

	if m.Instances != 3 {
		t.Fatalf("instances = %d, want 3", m.Instances)
	}
	if m.Dscn <= 0 || m.Dwait <= 0 {
		t.Fatalf("degenerate metrics: %+v", m)
	}
	// In this case every instance's root wait is itself a driver wait,
	// so top-level counting yields no cross-instance duplicates: each
	// deeper shared wait is covered by its instance's own root wait.
	// (Corpus-level duplication — Dwait > Dwaitdist — arises from
	// app-level waits above driver activity; see TestHeadlineBands.)
	if m.Dwait != m.Dwaitdist {
		t.Errorf("Dwait=%v != Dwaitdist=%v for the all-driver-root case", m.Dwait, m.Dwaitdist)
	}
	// The propagated disk+decrypt delay dominates all three instances.
	if m.IAwait() < 0.5 {
		t.Errorf("IAwait = %.2f, want > 0.5: the delay chain dominates", m.IAwait())
	}
	// Waiting dominates driver CPU in this disk-bound case.
	if m.IAwait() <= m.IArun() {
		t.Errorf("IAwait=%.3f <= IArun=%.3f", m.IAwait(), m.IArun())
	}
}

func TestEmptyFilterMatchesNothing(t *testing.T) {
	s := scenario.MotivatingCase()
	c := trace.NewCorpus(s)
	m := analyze(t, c, trace.NewComponentFilter(), nil)
	if m.Dwait != 0 || m.Drun != 0 || m.Dwaitdist != 0 {
		t.Errorf("empty filter matched time: %+v", m)
	}
	if m.Dscn <= 0 {
		t.Error("Dscn must still accumulate instance durations")
	}
}

func TestSubsetOfInstances(t *testing.T) {
	s := scenario.MotivatingCase()
	c := trace.NewCorpus(s)
	refs := c.InstancesOf(scenario.BrowserTabCreate)
	if len(refs) != 1 {
		t.Fatalf("got %d BrowserTabCreate refs, want 1", len(refs))
	}
	m := analyze(t, c, trace.AllDrivers(), refs)
	if m.Instances != 1 {
		t.Errorf("instances = %d, want 1", m.Instances)
	}
	all := analyze(t, c, trace.AllDrivers(), nil)
	if m.Dscn >= all.Dscn {
		t.Errorf("subset Dscn %v >= full Dscn %v", m.Dscn, all.Dscn)
	}
}

func TestNoDoubleCountingNestedDriverWaits(t *testing.T) {
	// The BrowserTabCreate wait chain nests driver waits (FileTable wait
	// over MDU wait over disk wait). Only the top-level driver wait may
	// count, so Dwait for the single instance must not exceed its Dscn by
	// more than the parallelism the graph actually has.
	s := scenario.MotivatingCase()
	c := trace.NewCorpus(s)
	refs := c.InstancesOf(scenario.BrowserTabCreate)
	m := analyze(t, c, trace.AllDrivers(), refs)
	if m.Dwait > m.Dscn {
		t.Errorf("single-instance Dwait %v exceeds Dscn %v: nested waits double-counted", m.Dwait, m.Dscn)
	}
}

// TestHeadlineBands generates a small corpus and checks the §5.1 headline
// metrics land in the paper's qualitative bands: waiting dominates driver
// CPU by an order of magnitude, cost propagation accounts for a large
// share of waiting, and the wait/distinct ratio shows propagation into
// multiple instances.
func TestHeadlineBands(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus generation in -short mode")
	}
	corpus := scenario.Generate(scenario.Config{Seed: 1, Streams: 24, Episodes: 12})
	m := analyze(t, corpus, trace.AllDrivers(), nil)
	t.Logf("headline: %v", m)

	if m.IAwait() < 0.15 || m.IAwait() > 0.65 {
		t.Errorf("IAwait = %.1f%%, want within 15%%..65%% (paper: 36.4%%)", m.IAwait()*100)
	}
	if m.IArun() > 0.10 {
		t.Errorf("IArun = %.1f%%, want small (paper: 1.6%%)", m.IArun()*100)
	}
	if m.IAwait() < 8*m.IArun() {
		t.Errorf("IAwait (%.3f) should dominate IArun (%.3f) by >8x", m.IAwait(), m.IArun())
	}
	if m.IAopt() <= 0.05 {
		t.Errorf("IAopt = %.1f%%, want a substantial propagation share (paper: 26%%)", m.IAopt()*100)
	}
	if r := m.WaitDistinctRatio(); r < 1.5 || r > 8 {
		t.Errorf("Dwait/Dwaitdist = %.2f, want within 1.5..8 (paper: 3.5)", r)
	}
}

// TestImpactInvariantsProperty checks metric invariants over random small
// corpora: Dwaitdist <= Dwait, all ratios within [0, ~1+], and IAopt
// non-negative.
func TestImpactInvariantsProperty(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		corpus := scenario.Generate(scenario.Config{Seed: seed, Streams: 2, Episodes: 5})
		m := analyze(t, corpus, trace.AllDrivers(), nil)
		if m.Dwaitdist > m.Dwait {
			t.Errorf("seed %d: Dwaitdist %v > Dwait %v", seed, m.Dwaitdist, m.Dwait)
		}
		if m.IAopt() < 0 {
			t.Errorf("seed %d: negative IAopt %v", seed, m.IAopt())
		}
		if m.IAwait() < 0 || m.IArun() < 0 {
			t.Errorf("seed %d: negative ratios", seed)
		}
		if m.Dscn <= 0 {
			t.Errorf("seed %d: non-positive Dscn", seed)
		}
		if r := m.WaitDistinctRatio(); m.Dwaitdist > 0 && r < 1 {
			t.Errorf("seed %d: ratio %v < 1", seed, r)
		}
	}
}

// TestPartialMergeMatchesSequential: merging per-shard partials, for any
// split of the corpus that keeps each stream whole — how the engine
// shards — reproduces the one-pass metrics exactly: a wait can only be
// shared by instances of one stream, so Dwaitdist is a sum over streams
// like the rest.
func TestPartialMergeMatchesSequential(t *testing.T) {
	corpus := scenario.Generate(scenario.Config{Seed: 11, Streams: 6, Episodes: 4})
	refs := corpus.InstancesOf("")
	want := analyze(t, corpus, trace.AllDrivers(), refs)
	if want.Dwait == want.Dwaitdist {
		t.Fatalf("no wait is shared across instances (%+v): the test would not see a double count", want)
	}

	for _, parts := range []int{2, 3, 5} {
		merged := NewPartial()
		for k, lo := 0, 0; k < parts; k++ {
			// Shard k is streams [k*n/parts, (k+1)*n/parts); refs are grouped
			// by stream.
			hi := lo
			for hi < len(refs) && refs[hi].Stream < (k+1)*corpus.NumStreams()/parts {
				hi++
			}
			merged.Merge(analyzeShard(t, corpus, trace.AllDrivers(), refs[lo:hi]))
			lo = hi
		}
		if merged.Metrics != want {
			t.Errorf("%d-way merge differs:\n  %v\n  %v", parts, merged.Metrics, want)
		}
	}
}

// lossySource fails the fetch of one stream.
type lossySource struct {
	trace.Source
	lost int
}

var errLost = errors.New("stream file is gone")

func (s lossySource) Stream(i int) (*trace.Stream, error) {
	if i == s.lost {
		return nil, errLost
	}
	return s.Source.Stream(i)
}

// TestGraphsOverStopsAtFetchError: the walk hands out graphs in refs
// order, flagging each stream's last, up to the first stream it cannot
// fetch, then returns that error; it never substitutes a graph for the
// stream it lost.
func TestGraphsOverStopsAtFetchError(t *testing.T) {
	corpus := scenario.Generate(scenario.Config{Seed: 3, Streams: 3, Episodes: 2})
	refs := corpus.InstancesOf("")
	var seen []trace.InstanceRef
	err := GraphsOver(lossySource{corpus, 1}, refs, func(ref trace.InstanceRef, g *waitgraph.Graph, last bool) {
		if g.StreamIndex != ref.Stream || g.Instance != corpus.InstanceMeta(ref) {
			t.Errorf("ref %+v got the graph of stream %d, instance %+v", ref, g.StreamIndex, g.Instance)
		}
		if want := ref.Instance == len(corpus.Streams[ref.Stream].Instances)-1; last != want {
			t.Errorf("ref %+v: last = %v, want %v", ref, last, want)
		}
		seen = append(seen, ref)
	})
	if !errors.Is(err, errLost) {
		t.Fatalf("err = %v, want the fetch error", err)
	}
	if want := corpus.Streams[0].Instances; len(seen) != len(want) || !reflect.DeepEqual(seen, refs[:len(want)]) {
		t.Errorf("walked %v, want exactly stream 0's refs %v", seen, refs[:len(want)])
	}
}
