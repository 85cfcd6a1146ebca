// Package tracetest is test support for the trace consumers: small
// adversarial trace streams for the analysis kernel's equivalence tests
// (waitgraph, impact, awg) — the shapes a recorder rarely emits but the
// kernel must still get right — and a source that watches the lifetime
// of the streams it hands out.
package tracetest

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"tracescope/internal/stats"
	"tracescope/internal/trace"
)

// RandomStream returns a valid, time-sorted stream of the given number
// of threads, each performing steps sequential events, drawn
// deterministically from seed. It contains, by construction:
//
//   - wait chains: a wait of thread k is woken only by a higher-numbered
//     thread, so graphs are acyclic and at most `threads` waits deep;
//   - diamonds: one thread wakes several waiters over overlapping
//     windows, so its events are children of more than one wait node;
//   - orphan waits (no unwait), and waits with two unwaits at the same
//     instant from different threads;
//   - events with no callstack (trace.NoStack), on every event type;
//   - driver, application-only and kernel-only callstacks;
//   - thread IDs that are not small: the last thread's ID is far beyond
//     the event count, the first is numbered from zero.
//
// Every thread records a few instances over random windows.
func RandomStream(seed int64, threads, steps int) *trace.Stream {
	rng := stats.NewRand(seed)
	s := trace.NewStream(fmt.Sprintf("random-%d", seed))
	stacks := []trace.StackID{
		trace.NoStack,
		s.InternStackStrings("kernel!AcquireLock", "fs.sys!AcquireMDU", "App!Main"),
		s.InternStackStrings("kernel!AcquireLock", "fv.sys!Query", "fs.sys!Read", "App!Main"),
		s.InternStackStrings("kernel!ReleaseLock", "fs.sys!ReleaseMDU", "App!Worker"),
		s.InternStackStrings("se.sys!Decrypt", "kernel!Worker"),
		s.InternStackStrings("kernel!WaitForObject", "App!Main"),
		s.InternStackStrings("kernel!Signal", "App!Worker"),
		s.InternStackStrings("kernel!Idle"),
		s.InternStackStrings("DISK.SYS!Transfer"),
	}
	stack := func() trace.StackID { return stats.Pick(rng, stacks) }

	tids := make([]trace.ThreadID, threads)
	for k := range tids {
		tids[k] = trace.ThreadID(k)
	}
	tids[threads-1] = 1<<20 + 7

	type wait struct {
		thread     int
		start, end trace.Time
	}
	var waits []wait
	for k, tid := range tids {
		t := trace.Time(rng.Intn(2000))
		first := t
		for i := 0; i < steps; i++ {
			e := trace.Event{Time: t, TID: tid, WTID: trace.NoThread, Stack: stack()}
			switch rng.Intn(4) {
			case 0:
				e.Type, e.Cost = trace.Wait, trace.Duration(500+rng.Intn(8000))
				waits = append(waits, wait{thread: k, start: t, end: e.End()})
			case 1:
				e.Type, e.Cost = trace.HardwareService, trace.Duration(100+rng.Intn(3000))
			default:
				e.Type, e.Cost = trace.Running, trace.Millisecond
			}
			s.AppendEvent(e)
			t = e.End() + trace.Time(rng.Intn(300))
		}
		for i := 0; i < 3; i++ {
			start := first + trace.Time(rng.Int63n(int64(t-first)))
			end := start + 1 + trace.Time(rng.Int63n(int64(t-start)))
			s.Instances = append(s.Instances, trace.Instance{Scenario: "S", TID: tid, Start: start, End: end})
		}
	}
	for _, w := range waits {
		higher := threads - 1 - w.thread
		if higher == 0 || rng.Bool(0.15) {
			continue // orphan
		}
		wakers := 1
		if rng.Bool(0.1) {
			wakers = 2
		}
		for i := 0; i < wakers; i++ {
			s.AppendEvent(trace.Event{
				Type: trace.Unwait, Time: w.end, Stack: stack(),
				TID:  tids[w.thread+1+rng.Intn(higher)],
				WTID: tids[w.thread],
			})
		}
	}
	s.SortEvents()
	return s
}

// LiveSource wraps a lazy source — one that decodes a new stream on
// every fetch, such as a *trace.DirSource — and watches, through a
// finalizer, the lifetime of each stream it hands out: the lifetime
// tests use it to show that a sequential analysis pass fetches each
// stream once and keeps none. Every fetch first waits (Settle) for the
// collector to reclaim the streams already handed out, so MaxLive is
// what the pass keeps reachable, not the collector's lag. Read the
// fields between passes only.
type LiveSource struct {
	trace.Source
	// Fetches counts the fetches of each stream, by stream index; set
	// it to nil to start a new count.
	Fetches map[int]int
	// MaxLive is the most handed-out streams that were alive at once.
	MaxLive int

	mu   sync.Mutex
	live int // handed out and not yet reclaimed
}

// Stream fetches stream i from the wrapped source and tracks it.
func (l *LiveSource) Stream(i int) (*trace.Stream, error) {
	l.Settle()
	s, err := l.Source.Stream(i)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.Fetches == nil {
		l.Fetches = make(map[int]int)
	}
	l.Fetches[i]++
	l.live++
	l.MaxLive = max(l.MaxLive, l.live)
	runtime.SetFinalizer(s, func(*trace.Stream) {
		l.mu.Lock()
		l.live--
		l.mu.Unlock()
	})
	return s, nil
}

// Settle runs the collector until every stream handed out has been
// reclaimed, giving up after 400 tries (two seconds and more), and
// returns how many are still alive: the streams something still
// references.
func (l *LiveSource) Settle() int {
	for tries := 1; ; tries++ {
		runtime.GC()
		l.mu.Lock()
		live := l.live
		l.mu.Unlock()
		if live == 0 || tries == 400 {
			return live
		}
		time.Sleep(5 * time.Millisecond)
	}
}
