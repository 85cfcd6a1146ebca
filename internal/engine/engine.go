// Package engine provides the bounded worker pool that parallelises the
// analysis pipeline. Fold is the one loop every corpus-sized fan-out
// runs: each worker owns one state and pulls the next unit (a whole
// trace stream — per-stream Wait-Graph builders are single-writer) from
// a shared cursor until it runs dry, and the caller merges the at most
// one state per worker. Which worker takes which unit depends on
// scheduling, so a Fold is for accumulations that do not care — sums,
// maxima, unions of keyed maps read back in sorted order — and for those
// the merged result is bit-for-bit the sequential one at any worker
// count. A caller that needs results in index order writes unit i's
// into slot i of a slice it owns.
package engine

import (
	"runtime"
	"sync"
	"sync/atomic"

	"tracescope/internal/obs"
)

// Options bound a run.
type Options struct {
	// Workers bounds the worker pool. Zero means GOMAXPROCS; one forces
	// the inline sequential path. Results are identical at any setting.
	Workers int
	// Recorder receives the run's observability events (shard spans,
	// progress, shard/worker counters). Nil means no-op.
	Recorder obs.Recorder
	// Label names the run in recorded events: shard spans complete under
	// "<Label>_shard" and progress under "<Label>". Empty means "engine".
	Label string
}

// label resolves the run label.
func (o Options) label() string {
	if o.Label == "" {
		return "engine"
	}
	return o.Label
}

// EffectiveWorkers resolves the configured worker count.
func (o Options) EffectiveWorkers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// TargetShards returns the number of states a Fold builds at the
// configured worker count — one per worker — before the unit count caps
// it.
func (o Options) TargetShards() int { return o.EffectiveWorkers() }

// Fold runs fn(state, i) for every i in [0, n) and returns the states it
// ran them on. There are min(TargetShards(), n) workers; worker w owns
// newState(w) — no two goroutines ever touch one state — and takes the
// next index from a cursor all workers share, so a unit that runs long
// delays only the worker holding it. Worker 0 is the calling goroutine:
// at one worker the whole fold runs inline. A worker that finds the
// cursor dry at its first pull still returns its (untouched) state.
//
// The first error stops every worker at its next pull, and Fold returns
// no states and the error of the lowest failing index — always the same
// one: the cursor hands indices out in order, and each one handed out runs.
//
// A "shard" is one worker's run: a "<label>_shard" span and a count in
// engine_shards_total; progress ticks per unit. The recorded event set
// depends on n and the worker count, never on which worker ran what.
func Fold[S any](n int, opts Options, newState func(worker int) S, fn func(state S, i int) error) ([]S, error) {
	workers := min(opts.TargetShards(), n)
	if workers <= 0 {
		return nil, nil
	}
	rec := obs.OrNop(opts.Recorder)
	label := opts.label()
	rec.Add("engine_runs_total", 1)
	rec.Add("engine_shards_total", int64(workers))
	rec.Add("engine_workers_total", int64(workers))

	states := make([]S, workers)
	for w := range states {
		states[w] = newState(w)
	}
	var (
		next, done atomic.Int64
		failed     atomic.Bool
		mu         sync.Mutex // guards err and errAt
		err        error
		errAt      = n
	)
	run := func(w int) {
		sp := rec.Start(label + "_shard")
		defer sp.End()
		for !failed.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if e := fn(states[w], i); e != nil {
				// Stop the others before queueing for the lock: a worker
				// descheduled in between would let them drain the cursor.
				failed.Store(true)
				mu.Lock()
				if i < errAt {
					err, errAt = e, i
				}
				mu.Unlock()
				return
			}
			rec.Progress(label, done.Add(1), int64(n))
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(w)
		}()
	}
	run(0)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	return states, nil
}
