package engine

import (
	"fmt"
	"sort"
	"sync/atomic"
	"testing"

	"tracescope/internal/obs"
)

// TestFoldEveryIndexOnceOnOneState: every index runs exactly once, on
// the state of exactly one worker, there are min(workers, n) states, and
// no state is ever in two calls at once (CI runs this under -race, where
// the unsynchronised writes to a state would also be reported).
func TestFoldEveryIndexOnceOnOneState(t *testing.T) {
	type state struct {
		worker int
		busy   atomic.Bool
		seen   []int
	}
	for _, n := range []int{1, 2, 7, 100} {
		for _, workers := range []int{0, 1, 2, 4, 8, 200} {
			opts := Options{Workers: workers}
			states, err := Fold(n, opts, func(w int) *state { return &state{worker: w} },
				func(s *state, i int) error {
					if !s.busy.CompareAndSwap(false, true) {
						t.Errorf("n=%d workers=%d: state %d is in two calls at once", n, workers, s.worker)
					}
					s.seen = append(s.seen, i)
					s.busy.Store(false)
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
			if want := min(opts.EffectiveWorkers(), n); len(states) != want || opts.TargetShards() != opts.EffectiveWorkers() {
				t.Fatalf("n=%d workers=%d: %d states, want %d", n, workers, len(states), want)
			}
			ran := make([]int, n)
			for w, s := range states {
				if s.worker != w {
					t.Errorf("n=%d workers=%d: states[%d] is worker %d's", n, workers, w, s.worker)
				}
				if !sort.IntsAreSorted(s.seen) {
					t.Errorf("n=%d workers=%d: worker %d ran %v, want ascending (one cursor)", n, workers, w, s.seen)
				}
				for _, i := range s.seen {
					ran[i]++
				}
			}
			for i, c := range ran {
				if c != 1 {
					t.Errorf("n=%d workers=%d: index %d ran %d times", n, workers, i, c)
				}
			}
		}
	}
}

// TestFoldEmpty: nothing to fold builds no state and records no run.
func TestFoldEmpty(t *testing.T) {
	rec := obs.NewMemRecorder()
	states, err := Fold(0, Options{Workers: 4, Recorder: rec},
		func(int) int { t.Error("state built for an empty fold"); return 0 },
		func(int, int) error { t.Error("unit run for an empty fold"); return nil })
	if states != nil || err != nil {
		t.Fatalf("empty fold yielded %v, %v", states, err)
	}
	if got := rec.CounterValue("engine_runs_total"); got != 0 {
		t.Errorf("engine_runs_total = %d, want 0", got)
	}
}

// TestFoldErrorStopsTheRest: after a unit fails, each worker starts at
// most one more (the pull it had already decided on), the fold returns
// no states, and the error is the lowest failing index's whichever
// worker met which. A worker descheduled between its unit failing and
// its stop signal lets the others pull on, so the bound must hold in one
// of five attempts; the error and the missing states, in every one.
func TestFoldErrorStopsTheRest(t *testing.T) {
	const n, attempts = 1000, 5
	for _, workers := range []int{1, 2, 8} {
		var started []int64
		for range attempts {
			var failedAt, after atomic.Int64
			states, err := Fold(n, Options{Workers: workers}, func(int) int { return 0 },
				func(_ int, i int) error {
					if failedAt.Load() != 0 {
						after.Add(1)
					}
					if i == 3 || i == 5 {
						failedAt.CompareAndSwap(0, int64(i))
						return fmt.Errorf("unit %d", i)
					}
					return nil
				})
			if err == nil || err.Error() != "unit 3" || states != nil {
				t.Fatalf("workers=%d: got %v, %v; want unit 3's error and no states", workers, states, err)
			}
			if started = append(started, after.Load()); after.Load() <= int64(workers) {
				break
			}
		}
		if got := started[len(started)-1]; got > int64(workers) {
			t.Errorf("workers=%d: %v units started after the failure in %d attempts, want at most one per worker in one", workers, started, attempts)
		}
	}
}

func TestEffectiveWorkers(t *testing.T) {
	if w := (Options{Workers: 3}).EffectiveWorkers(); w != 3 {
		t.Fatalf("explicit workers resolved to %d", w)
	}
	if w := (Options{}).EffectiveWorkers(); w < 1 {
		t.Fatalf("default workers resolved to %d", w)
	}
}
