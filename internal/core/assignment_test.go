package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"tracescope/internal/impact"
	"tracescope/internal/mining"
	"tracescope/internal/obs"
	"tracescope/internal/scenario"
	"tracescope/internal/trace"
)

// gatedSource holds fetches back until the schedule it was given is the
// only one possible. A worker is known by the Scratch it fetches with,
// and numbered in order of first sight. Every schedule starts with a
// barrier — no fetch returns until workers of them are inside their
// first — so the cursor's first indices are spread one a worker; what
// happens next is the schedule's: ready(w, nth) says whether worker w's
// nth fetch may return, given the counters below.
type gatedSource struct {
	trace.Source
	workers int // the fold's worker count
	total   int // the fetches the fold will make
	ready   func(g *gatedSource, w, nth int) bool

	mu      sync.Mutex
	cond    *sync.Cond
	ordinal map[*trace.Scratch]int
	entered []int // fetches entered, by worker
	all     int   // fetches entered, all workers
}

func (g *gatedSource) StreamInto(i int, sc *trace.Scratch) (*trace.Stream, error) {
	g.mu.Lock()
	if g.cond == nil {
		g.cond = sync.NewCond(&g.mu)
		g.ordinal = make(map[*trace.Scratch]int)
	}
	w, ok := g.ordinal[sc]
	if !ok {
		w = len(g.ordinal)
		g.ordinal[sc] = w
		g.entered = append(g.entered, 0)
	}
	nth := g.entered[w]
	g.entered[w]++
	g.all++
	g.cond.Broadcast()
	for len(g.ordinal) < g.workers || !g.ready(g, w, nth) {
		g.cond.Wait()
	}
	g.mu.Unlock()
	return trace.StreamInto(g.Source, i, sc)
}

// loner holds one worker's first fetch until every other fetch of the
// fold has been made: that worker folds exactly one stream, the rest
// drain the cursor.
func loner(worker int) func(*gatedSource, int, int) bool {
	return func(g *gatedSource, w, _ int) bool { return w != worker || g.all == g.total }
}

// alternate lets round r+1 begin only when every fetch of round r has
// been entered: the workers take the cursor's indices strictly in turn.
func alternate(g *gatedSource, _, nth int) bool {
	return g.all >= min((nth+1)*g.workers, g.total)
}

// TestFoldAnyAssignment: which worker folds which stream is up to the
// scheduler, and the answers are not. Under the extreme assignments —
// the first-seen worker gets one stream and the others the rest, the
// last-seen worker does, strict alternation — at two and four workers,
// through the Analyzer and through IngestSource, in memory and out of
// core, the report bytes and every field of every causality result equal
// the one-worker fold's.
func TestFoldAnyAssignment(t *testing.T) {
	corpus := equivalenceCorpus(t)
	dir := t.TempDir()
	if err := corpus.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	disk, err := trace.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}

	seq := NewAnalyzer(corpus, WithWorkers(1), WithThresholds(scenario.Thresholds))
	wantImpact := seq.Impact(trace.AllDrivers(), "")
	var want []*CausalityResult
	for _, name := range scenario.Selected() {
		want = append(want, catalogueCausality(t, seq, name))
	}
	wantReport := writeReport(t, wantImpact, want)

	// same compares a gated fold's answers with the one-worker fold's,
	// having checked that the gate did force its schedule: the worker
	// with the fewest streams folded exactly fewest of them.
	same := func(label string, g *gatedSource, fewest int, m impact.Metrics, query func(name string) *CausalityResult) {
		t.Helper()
		if len(g.entered) != g.workers || slices.Min(g.entered) != fewest {
			t.Errorf("%s: workers folded %v streams: the schedule was not forced", label, g.entered)
		}
		var got []*CausalityResult
		for i, name := range scenario.Selected() {
			res := query(name)
			sameResult(t, label+"/"+name, res, want[i])
			got = append(got, res)
		}
		if report := writeReport(t, m, got); report != wantReport {
			t.Errorf("%s: report differs from the one-worker fold's:\n%s\n--- want ---\n%s", label, report, wantReport)
		}
	}

	n := corpus.NumStreams()
	for _, workers := range []int{2, 4} {
		schedules := []struct {
			name   string
			ready  func(*gatedSource, int, int) bool
			fewest int // streams the least-loaded worker folds
		}{
			{"first-alone", loner(0), 1},
			{"last-alone", loner(workers - 1), 1},
			{"alternate", alternate, n / workers},
		}
		for _, sch := range schedules {
			for srcName, src := range map[string]trace.Source{"memory": corpus, "dir": disk} {
				label := fmt.Sprintf("%s/%s/workers=%d", sch.name, srcName, workers)

				g := &gatedSource{Source: src, workers: workers, total: n, ready: sch.ready}
				an := NewAnalyzer(g, WithWorkers(workers), WithThresholds(scenario.Thresholds))
				same(label+"/analyzer", g, sch.fewest, an.Impact(trace.AllDrivers(), ""), func(name string) *CausalityResult {
					return catalogueCausality(t, an, name)
				})

				g = &gatedSource{Source: src, workers: workers, total: n, ready: sch.ready}
				inc := NewIncremental(IncrementalConfig{Thresholds: scenario.Thresholds, Workers: workers})
				if err := inc.IngestSource(g); err != nil {
					t.Fatal(err)
				}
				same(label+"/ingest", g, sch.fewest, inc.Impact(""), func(name string) *CausalityResult {
					res, err := inc.Causality(name, mining.Params{})
					if err != nil {
						t.Fatal(err)
					}
					return res
				})
			}
		}
	}
}

// failingSource fails the fetch of one stream and counts the fetches
// that start once that failure has been returned.
type failingSource struct {
	trace.Source
	bad    int
	mu     sync.Mutex
	failed bool
	after  int
}

var errStreamGone = errors.New("stream file gone")

func (f *failingSource) Stream(i int) (*trace.Stream, error) {
	f.mu.Lock()
	if f.failed {
		f.after++
	}
	if i == f.bad {
		f.failed = true
		f.mu.Unlock()
		return nil, errStreamGone
	}
	f.mu.Unlock()
	return f.Source.Stream(i)
}

// TestFoldStopsAtFetchError: the first fetch error stops the fold — each
// worker makes at most the one fetch it had already pulled — the error
// names the stream, and the receiver is left exactly as it was: the same
// state, once the source answers again, folds to what a fresh one does.
// As in engine's TestFoldErrorStopsTheRest, the fetch bound must hold in
// one of five attempts; the error and the untouched receiver, in every one.
func TestFoldStopsAtFetchError(t *testing.T) {
	const attempts = 5
	corpus := scenario.Generate(scenario.Config{Seed: 5, Streams: 64, Episodes: 2})
	fresh := NewIncremental(IncrementalConfig{Thresholds: scenario.Thresholds, Workers: 1})
	if err := fresh.IngestSource(corpus); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		var (
			src   *failingSource
			inc   *Incremental
			after []int
		)
		for range attempts {
			src = &failingSource{Source: corpus, bad: 0}
			inc = NewIncremental(IncrementalConfig{Thresholds: scenario.Thresholds, Workers: workers})
			err := inc.IngestSource(src)
			if !errors.Is(err, errStreamGone) || err.Error() != "core: folding stream 0: stream file gone" {
				t.Fatalf("workers=%d: IngestSource returned %v", workers, err)
			}
			if inc.NumStreams() != 0 || inc.NumInstances() != 0 || len(inc.Scenarios()) != 0 {
				t.Fatalf("workers=%d: the failed fold left %d streams / %d instances behind", workers, inc.NumStreams(), inc.NumInstances())
			}
			if after = append(after, src.after); src.after <= workers {
				break
			}
		}
		if src.after > workers {
			t.Errorf("workers=%d: %v of %d streams fetched after the failure in %d attempts, want at most one per worker in one",
				workers, after, corpus.NumStreams(), attempts)
		}

		src.bad = -1
		if err := inc.IngestSource(src); err != nil {
			t.Fatal(err)
		}
		for _, name := range scenario.Selected() {
			got, err := inc.Causality(name, mining.Params{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Causality(name, mining.Params{})
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, fmt.Sprintf("workers=%d/%s", workers, name), got, want)
		}
		if got, want := inc.Impact(""), fresh.Impact(""); got != want {
			t.Errorf("workers=%d: impact after the retry %v, want %v", workers, got, want)
		}

		an := NewAnalyzer(&failingSource{Source: corpus, bad: 0}, WithWorkers(workers))
		if m := an.Impact(trace.AllDrivers(), ""); m.Instances != 0 || !errors.Is(an.Err(), errStreamGone) {
			t.Errorf("workers=%d: Analyzer over a failing source answered %v, Err %v", workers, m, an.Err())
		}
	}
}

// TestIngestCountersMatchState: core_streams_ingested_total and
// core_instances_ingested_total say what the state says, however the
// streams got in — and under a one-scenario fold, which skips the other
// scenarios' instances of the streams it decodes, what was folded.
func TestIngestCountersMatchState(t *testing.T) {
	corpus := equivalenceCorpus(t)
	check := func(label string, rec *obs.MemRecorder, streams, instances int) {
		t.Helper()
		if got := rec.CounterValue("core_streams_ingested_total"); got != int64(streams) {
			t.Errorf("%s: core_streams_ingested_total = %d, want %d", label, got, streams)
		}
		if got := rec.CounterValue("core_instances_ingested_total"); got != int64(instances) {
			t.Errorf("%s: core_instances_ingested_total = %d, want %d", label, got, instances)
		}
	}
	for _, workers := range []int{1, 4} {
		rec := obs.NewMemRecorder()
		inc := NewIncremental(IncrementalConfig{Thresholds: scenario.Thresholds, Workers: workers, Recorder: rec})
		if err := inc.IngestSource(corpus); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("IngestSource/workers=%d", workers), rec, inc.NumStreams(), inc.NumInstances())
		if inc.NumStreams() != corpus.NumStreams() || inc.NumInstances() != corpus.NumInstances() {
			t.Fatalf("folded %d streams / %d instances of %d / %d", inc.NumStreams(), inc.NumInstances(), corpus.NumStreams(), corpus.NumInstances())
		}

		rec = obs.NewMemRecorder()
		an := NewAnalyzer(corpus, WithWorkers(workers), WithRecorder(rec))
		an.Impact(trace.AllDrivers(), "")
		check(fmt.Sprintf("Analyzer/workers=%d", workers), rec, corpus.NumStreams(), corpus.NumInstances())

		const scoped = "BrowserTabCreate"
		rec = obs.NewMemRecorder()
		an = NewAnalyzer(corpus, WithWorkers(workers), WithRecorder(rec))
		m := an.Impact(trace.AllDrivers(), scoped)
		if m.Instances == 0 || m.Instances == corpus.NumInstances() {
			t.Fatalf("scoped fold covered %d of %d instances: not a scope", m.Instances, corpus.NumInstances())
		}
		check(fmt.Sprintf("Analyzer/%s/workers=%d", scoped, workers), rec, len(streamsOf(corpus, scoped)), m.Instances)
	}
	rec := obs.NewMemRecorder()
	inc := NewIncremental(IncrementalConfig{Thresholds: scenario.Thresholds, Recorder: rec})
	for si, s := range corpus.Streams {
		inc.Ingest(si, s)
	}
	check("Ingest", rec, corpus.NumStreams(), corpus.NumInstances())
}
