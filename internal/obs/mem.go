package obs

import (
	"sort"
	"sync"
)

// DefaultBoundaries are the histogram bucket upper bounds in
// nanoseconds: decades from 1µs to 10s. Every recorder uses them, which
// keeps snapshot shapes identical across runs and recorders, so
// snapshots diff cleanly.
var DefaultBoundaries = []int64{
	1_000,          // 1µs
	10_000,         // 10µs
	100_000,        // 100µs
	1_000_000,      // 1ms
	10_000_000,     // 10ms
	100_000_000,    // 100ms
	1_000_000_000,  // 1s
	10_000_000_000, // 10s
}

// MemRecorder aggregates events in memory: counters, span duration
// histograms, observation histograms, and per-phase progress state. It
// is safe for concurrent use and snapshots deterministically — entries
// are sorted by name and all values are integers, so two runs that
// record the same events produce byte-identical snapshots regardless of
// interleaving.
//
// The clock is injected (WithClock); without one, spans complete with
// zero duration. That is the deterministic default: span counts and
// histogram shapes stay meaningful and reproducible, while wall-time
// measurement is an explicit opt-in owned by the caller.
type MemRecorder struct {
	clock Clock

	mu       sync.Mutex
	counters map[string]int64
	spans    map[string]*histogram
	obs      map[string]*histogram
	progress map[string]*progressState
}

type histogram struct {
	count   int64
	sum     int64
	buckets []int64 // len(DefaultBoundaries)+1; last is overflow
}

type progressState struct {
	events int64
	done   int64
	total  int64
}

// MemOption configures a MemRecorder.
type MemOption func(*MemRecorder)

// WithClock injects the clock that times spans. Pass a wall-clock-backed
// clock from command-line code for real timings, or a stepped fake in
// tests; leaving it unset keeps every duration zero and the snapshot
// fully deterministic.
func WithClock(c Clock) MemOption {
	return func(m *MemRecorder) { m.clock = c }
}

// NewMemRecorder builds an empty in-memory recorder.
func NewMemRecorder(opts ...MemOption) *MemRecorder {
	m := &MemRecorder{
		counters: make(map[string]int64),
		spans:    make(map[string]*histogram),
		obs:      make(map[string]*histogram),
		progress: make(map[string]*progressState),
	}
	for _, opt := range opts {
		opt(m)
	}
	return m
}

// Add increments the named counter.
func (m *MemRecorder) Add(name string, delta int64) {
	m.mu.Lock()
	m.counters[name] += delta
	m.mu.Unlock()
}

// Observe records one sample into the named observation histogram.
func (m *MemRecorder) Observe(name string, value int64) {
	m.mu.Lock()
	m.observeLocked(m.obs, name, value)
	m.mu.Unlock()
}

// Start opens a timed span. With no clock injected the span completes
// with zero duration.
func (m *MemRecorder) Start(name string) Span {
	var start int64
	if m.clock != nil {
		start = m.clock()
	}
	return &memSpan{rec: m, name: name, start: start}
}

// Progress updates the named phase's completion state: events counts the
// reports, done keeps the maximum seen (workers may report out of
// order), total the last reported total.
func (m *MemRecorder) Progress(phase string, done, total int64) {
	m.mu.Lock()
	p, ok := m.progress[phase]
	if !ok {
		p = &progressState{}
		m.progress[phase] = p
	}
	p.events++
	if done > p.done {
		p.done = done
	}
	p.total = total
	m.mu.Unlock()
}

type memSpan struct {
	rec   *MemRecorder
	name  string
	start int64
}

func (s *memSpan) End() {
	var d int64
	if s.rec.clock != nil {
		if d = s.rec.clock() - s.start; d < 0 {
			d = 0
		}
	}
	s.rec.mu.Lock()
	s.rec.observeLocked(s.rec.spans, s.name, d)
	s.rec.mu.Unlock()
}

func (m *MemRecorder) observeLocked(hists map[string]*histogram, name string, value int64) {
	h, ok := hists[name]
	if !ok {
		h = &histogram{buckets: make([]int64, len(DefaultBoundaries)+1)}
		hists[name] = h
	}
	h.count++
	h.sum += value
	idx := sort.Search(len(DefaultBoundaries), func(i int) bool { return value <= DefaultBoundaries[i] })
	h.buckets[idx]++
}

// CounterValue returns the named counter's current value (0 if never
// incremented).
func (m *MemRecorder) CounterValue(name string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counters[name]
}

// SpanCount returns how many spans completed under the given name.
func (m *MemRecorder) SpanCount(name string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if h, ok := m.spans[name]; ok {
		return h.count
	}
	return 0
}

// Snapshot returns the recorder's aggregated state with every section
// sorted by name, so equal event histories marshal to identical bytes.
func (m *MemRecorder) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	snap := Snapshot{
		Counters:     make([]CounterSnapshot, 0, len(m.counters)),
		Spans:        snapHistograms(m.spans),
		Observations: snapHistograms(m.obs),
		Progress:     make([]ProgressSnapshot, 0, len(m.progress)),
	}
	for name, v := range m.counters {
		snap.Counters = append(snap.Counters, CounterSnapshot{Name: name, Value: v})
	}
	sort.SliceStable(snap.Counters, func(i, j int) bool { return snap.Counters[i].Name < snap.Counters[j].Name })
	for phase, p := range m.progress {
		snap.Progress = append(snap.Progress, ProgressSnapshot{
			Phase: phase, Events: p.events, Done: p.done, Total: p.total,
		})
	}
	sort.SliceStable(snap.Progress, func(i, j int) bool { return snap.Progress[i].Phase < snap.Progress[j].Phase })
	return snap
}

func snapHistograms(hists map[string]*histogram) []HistogramSnapshot {
	out := make([]HistogramSnapshot, 0, len(hists))
	for name, h := range hists {
		out = append(out, HistogramSnapshot{
			Name:       name,
			Count:      h.count,
			Sum:        h.sum,
			Boundaries: DefaultBoundaries,
			Counts:     append([]int64(nil), h.buckets...),
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
