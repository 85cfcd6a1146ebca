package core

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"tracescope/internal/mining"
	"tracescope/internal/obs"
	"tracescope/internal/scenario"
	"tracescope/internal/trace"
)

// scratchSpy is a source with the scratch fetch: it answers from the
// corpus under it and remembers every Scratch a fold presented.
type scratchSpy struct {
	trace.Source
	mu   sync.Mutex
	seen map[*trace.Scratch]int // fetches, by the scratch they came with
}

func (s *scratchSpy) StreamInto(i int, sc *trace.Scratch) (*trace.Stream, error) {
	s.mu.Lock()
	if s.seen == nil {
		s.seen = make(map[*trace.Scratch]int)
	}
	s.seen[sc]++
	s.mu.Unlock()
	return s.Source.Stream(i)
}

// TestFoldScratchPerWorker: a fold's scratches and partial states are
// its workers' — at most one scratch and exactly one partial state (one
// engine "shard", a worker's run) per worker, min(workers, streams) of
// them, merged under one "<label>_merge" span, on either way into
// foldStreams (keyed by its label below) — and at eight workers (under
// -race in CI) no two workers ever fold on one scratch at once.
func TestFoldScratchPerWorker(t *testing.T) {
	corpus := equivalenceCorpus(t)
	for _, workers := range []int{2, 8, 64} {
		folds := map[string]func(src trace.Source, rec obs.Recorder){
			"analysis_fold": func(src trace.Source, rec obs.Recorder) {
				an := NewAnalyzer(src, WithWorkers(workers), WithThresholds(scenario.Thresholds), WithRecorder(rec))
				an.Impact(trace.AllDrivers(), "")
				if err := an.Err(); err != nil {
					t.Fatal(err)
				}
			},
			"ingest_warmup": func(src trace.Source, rec obs.Recorder) {
				inc := NewIncremental(IncrementalConfig{Thresholds: scenario.Thresholds, Workers: workers, Recorder: rec})
				if err := inc.IngestSource(src); err != nil {
					t.Fatal(err)
				}
			},
		}
		for name, fold := range folds {
			spy := &scratchSpy{Source: corpus}
			rec := obs.NewMemRecorder()
			fold(spy, rec)
			fetched := 0
			for _, n := range spy.seen {
				fetched += n
			}
			if fetched != corpus.NumStreams() {
				t.Errorf("%s, workers %d: %d scratch fetches, want one per stream (%d)", name, workers, fetched, corpus.NumStreams())
			}
			want := min(workers, corpus.NumStreams())
			if len(spy.seen) > want {
				t.Errorf("%s, workers %d: folded on %d scratches, want at most %d", name, workers, len(spy.seen), want)
			}
			if got := rec.CounterValue("engine_shards_total"); got != int64(want) {
				t.Errorf("%s, workers %d: %d partial states, want %d", name, workers, got, want)
			}
			if got := rec.SpanCount(name + "_merge"); got != 1 {
				t.Errorf("%s, workers %d: %d merge spans, want 1", name, workers, got)
			}
		}
	}
}

// poisonSource hands every fetch a private copy of the stream, decoded
// from its wire bytes, and — like a decode buffer that is overwritten —
// ruins the copy it last handed out with a Scratch as soon as that
// Scratch comes back for the next stream: whatever still aliased the old
// copy now reads garbage.
type poisonSource struct {
	*trace.Corpus
	wire [][]byte
	mu   sync.Mutex
	last map[*trace.Scratch]*trace.Stream
}

func newPoisonSource(t *testing.T, corpus *trace.Corpus) *poisonSource {
	t.Helper()
	p := &poisonSource{Corpus: corpus, last: make(map[*trace.Scratch]*trace.Stream)}
	for _, s := range corpus.Streams {
		var buf bytes.Buffer
		if err := s.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		p.wire = append(p.wire, buf.Bytes())
	}
	return p
}

func poison(s *trace.Stream) {
	for i := range s.Events {
		s.Events[i] = trace.Event{Type: trace.Wait, Time: -1, Cost: 1 << 50, TID: -7, WTID: -7, Stack: 1 << 30}
	}
	for i := range s.Instances {
		s.Instances[i] = trace.Instance{Scenario: "poisoned", TID: -7, Start: -1, End: 1 << 50}
	}
	clear(s.Threads)
	s.ID = "poisoned"
}

func (p *poisonSource) StreamInto(i int, sc *trace.Scratch) (*trace.Stream, error) {
	s, err := trace.ReadBinary(bytes.NewReader(p.wire[i]))
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if old := p.last[sc]; old != nil {
		poison(old)
	}
	p.last[sc] = s
	return s, nil
}

// poisonAll ruins every copy still out: the fold is over.
func (p *poisonSource) poisonAll() {
	for _, s := range p.last {
		poison(s)
	}
}

// TestFoldSurvivesScratchPoison: nothing a folded state keeps may alias
// what a stream was decoded into. Over a source that overwrites each
// stream with garbage once its worker has moved on, the report bytes and
// every field of every causality result equal the in-memory fold's, at
// 1, 4 and 8 workers, through the Analyzer and through the daemon's
// warm-up.
func TestFoldSurvivesScratchPoison(t *testing.T) {
	corpus := equivalenceCorpus(t)
	ref := NewIncremental(IncrementalConfig{Thresholds: scenario.Thresholds})
	for si, s := range corpus.Streams {
		ref.Ingest(si, s)
	}
	var want []*CausalityResult
	for _, name := range scenario.Selected() {
		res, err := ref.Causality(name, mining.Params{})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res)
	}
	wantReport := writeReport(t, ref.Impact(""), want)

	for _, workers := range []int{1, 4, 8} {
		label := fmt.Sprintf("analyzer/workers=%d", workers)
		src := newPoisonSource(t, corpus)
		an := NewAnalyzer(src, WithWorkers(workers), WithThresholds(scenario.Thresholds))
		m := an.Impact(trace.AllDrivers(), "")
		src.poisonAll()
		var got []*CausalityResult
		for i, name := range scenario.Selected() {
			res := catalogueCausality(t, an, name)
			sameResult(t, label+"/"+name, res, want[i])
			got = append(got, res)
		}
		if report := writeReport(t, m, got); report != wantReport {
			t.Errorf("%s: report differs from the in-memory fold's:\n%s\n--- want ---\n%s", label, report, wantReport)
		}
		if len(src.last) > workers {
			t.Errorf("%s: the fold used %d scratches", label, len(src.last))
		}

		label = fmt.Sprintf("warm-up/workers=%d", workers)
		src = newPoisonSource(t, corpus)
		inc := NewIncremental(IncrementalConfig{Thresholds: scenario.Thresholds, Workers: workers})
		if err := inc.IngestSource(src); err != nil {
			t.Fatal(err)
		}
		src.poisonAll()
		got = got[:0]
		for i, name := range scenario.Selected() {
			res, err := inc.Causality(name, mining.Params{})
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, label+"/"+name, res, want[i])
			got = append(got, res)
		}
		if report := writeReport(t, inc.Impact(""), got); report != wantReport {
			t.Errorf("%s: report differs from the in-memory fold's:\n%s\n--- want ---\n%s", label, report, wantReport)
		}
		if inc.TotalDuration() != ref.TotalDuration() || inc.NumEvents() != ref.NumEvents() {
			t.Errorf("%s: totals %v/%d, want %v/%d", label, inc.TotalDuration(), inc.NumEvents(), ref.TotalDuration(), ref.NumEvents())
		}
	}
}

// allocated returns the bytes fn allocates (TotalAlloc only ever grows,
// so a collection in between does not matter).
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestFoldPassAllocBudget: a whole fold of a resident corpus — a new
// Analyzer, so a new Incremental and a new scratch, every pass —
// allocates for one stream's working set and for the aggregates it
// keeps, not for every stream again. The second pass at one worker
// measures 10.4 MB over this corpus, nearly all of it the scratch
// learning its sizes once (node and child arenas, mark sets, index
// tables), the rest Graph headers and AWG nodes; the tree before the
// worker-owned scratch measured 78.4 MB (a node slab per 512 nodes of
// every stream and a distinct-wait map entry per wait, 1.2 MB a stream).
// The budget sits more than 2× from both. CI runs this without -race,
// which inflates allocations.
func TestFoldPassAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus generation in -short mode")
	}
	const budget = 28 << 20
	// A third of the benchmark's batch corpus.
	corpus := scenario.Generate(scenario.Config{Seed: 21, Streams: 64, Episodes: 8})
	pass := func() {
		an := NewAnalyzer(corpus, WithWorkers(1), WithThresholds(scenario.Thresholds))
		if m := an.Impact(trace.AllDrivers(), ""); m.Instances != corpus.NumInstances() {
			t.Fatalf("folded %d instances, want %d", m.Instances, corpus.NumInstances())
		}
	}
	pass()
	got := allocated(pass)
	t.Logf("second fold of %d streams / %d events allocated %.1f MB (budget %d MB)",
		corpus.NumStreams(), corpus.NumEvents(), float64(got)/(1<<20), budget>>20)
	if got > budget {
		t.Errorf("second fold allocated %d bytes, budget %d", got, budget)
	}
}

// TestIngestSteadyStateAllocs: a warm Incremental — the daemon's, one
// upload after another — ingests a stream of a shape it has seen
// without allocating any of the stream-sized things: no node or
// child-list slab, no mark set, no index table. What it does allocate
// is a Graph header per instance and the odd bit of bookkeeping, a few
// kilobytes against the megabyte the working set measures.
func TestIngestSteadyStateAllocs(t *testing.T) {
	s := scenario.GenerateStream(scenario.Config{Seed: 21, Streams: 4, Episodes: 8}, 0)
	inc := NewIncremental(IncrementalConfig{Thresholds: scenario.Thresholds})
	inc.Ingest(0, s)
	inc.Ingest(1, s) // the first Reset after growth settles the arenas' sizes

	got := allocated(func() { inc.Ingest(2, s) })
	smallestTable := uint64(4 * len(s.Events)) // one mark set; every other table is larger
	t.Logf("ingesting %d events / %d instances into a warm state allocated %d bytes (a mark set is %d)",
		len(s.Events), len(s.Instances), got, smallestTable)
	if got >= smallestTable/2 {
		t.Errorf("warm ingest allocated %d bytes; want well under the smallest stream-sized table (%d)", got, smallestTable)
	}
}

// BenchmarkIngestStream is the daemon's steady state: one warm
// Incremental, one stream after another. -benchmem's B/op is the layer's
// allocation number on file.
func BenchmarkIngestStream(b *testing.B) {
	s := scenario.GenerateStream(scenario.Config{Seed: 21, Streams: 4, Episodes: 8}, 0)
	inc := NewIncremental(IncrementalConfig{Thresholds: scenario.Thresholds})
	inc.Ingest(0, s)
	b.ReportAllocs()
	b.SetBytes(int64(len(s.Events)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inc.Ingest(i+1, s)
	}
}
