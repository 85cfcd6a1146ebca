// Package engine provides the deterministic shard-and-merge runner that
// parallelises the analysis pipeline. Work over a corpus is split into
// shards of scenario-instance references such that no trace stream is
// ever shared by two shards (per-stream Wait-Graph builders are
// single-writer), each shard is mapped to a mergeable partial result on a
// bounded worker pool, and the partials are folded in shard-index order.
// Because every per-shard computation is deterministic and every merge is
// performed in a fixed order, results are bit-for-bit identical to the
// sequential path at any worker count.
package engine

import (
	"runtime"
	"sync"
	"sync/atomic"

	"tracescope/internal/obs"
	"tracescope/internal/trace"
)

// Options bound a shard-and-merge run.
type Options struct {
	// Workers bounds the worker pool. Zero means GOMAXPROCS; one forces
	// the inline sequential path. Results are identical at any setting.
	Workers int
	// Recorder receives the run's observability events (shard spans,
	// per-shard progress, shard/worker counters). Nil means no-op.
	Recorder obs.Recorder
	// Label names the run in recorded events: shard spans complete under
	// "<Label>_shard", progress under "<Label>", and the merge fold under
	// "<Label>_merge". Empty means "engine".
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

// shardsPerWorker oversubscribes the shard count relative to the pool so
// unevenly sized streams still balance.
const shardsPerWorker = 4

// TargetShards returns the shard count to aim for at the configured
// worker count. One worker means one shard: the exact sequential
// topology.
func (o Options) TargetShards() int {
	w := o.EffectiveWorkers()
	if w <= 1 {
		return 1
	}
	return w * shardsPerWorker
}

// Shard is one unit of analysis work: a run of instance references whose
// underlying streams belong to this shard alone.
type Shard struct {
	// Index is the shard's position in the deterministic merge order.
	Index int
	// Refs are the shard's instances, in their original input order.
	Refs []trace.InstanceRef
}

// ShardByStreamWeighted partitions refs into at most maxShards shards,
// keeping every stream's references within a single shard (stream-order
// sharding). Input order is preserved inside each shard, and the
// concatenation of all shards' Refs in Index order groups refs by stream
// in first-appearance order. maxShards <= 1 yields a single shard.
//
// Keeping streams whole is what makes the parallel path race-free: the
// per-stream Wait-Graph builders memoise nodes on first use, so only one
// worker may touch a stream during a map phase.
//
// Shards are packed to roughly equal total weight, weight being a
// stream's cost. Lazy sources know each stream's event count from the index without
// decoding, so sharding by it balances Wait-Graph construction work
// even when streams vary widely in size. A nil weight (or non-positive
// values) falls back to the stream's reference count. Shard composition
// affects only load balance, never results: merges are
// partition-invariant.
func ShardByStreamWeighted(refs []trace.InstanceRef, weight func(stream int) int64, maxShards int) []Shard {
	if len(refs) == 0 {
		return nil
	}
	if maxShards < 1 {
		maxShards = 1
	}
	// Group refs by stream, preserving first-appearance order of streams
	// and input order within each stream.
	order := make([]int, 0, 16)
	groups := make(map[int][]trace.InstanceRef)
	for _, ref := range refs {
		if _, ok := groups[ref.Stream]; !ok {
			order = append(order, ref.Stream)
		}
		groups[ref.Stream] = append(groups[ref.Stream], ref)
	}
	if maxShards > len(order) {
		maxShards = len(order)
	}
	var total int64
	weights := make([]int64, len(order))
	for k, si := range order {
		w := int64(len(groups[si]))
		if weight != nil {
			if ww := weight(si); ww > 0 {
				w = ww
			}
		}
		weights[k] = w
		total += w
	}
	// Pack consecutive stream groups into shards of roughly equal total
	// weight.
	target := (total + int64(maxShards) - 1) / int64(maxShards)
	shards := make([]Shard, 0, maxShards)
	var cur []trace.InstanceRef
	var curWeight int64
	flush := func() {
		if len(cur) > 0 {
			shards = append(shards, Shard{Index: len(shards), Refs: cur})
			cur = nil
			curWeight = 0
		}
	}
	for k, si := range order {
		g := groups[si]
		// Overflowing the target starts a new shard — unless this is
		// already the last allowed shard, which absorbs the remainder.
		if len(cur) > 0 && curWeight+weights[k] > target && len(shards) < maxShards-1 {
			flush()
		}
		cur = append(cur, g...)
		curWeight += weights[k]
	}
	flush()
	return shards
}

// Map runs fn(i) for every i in [0, n) on a bounded worker pool and
// returns the results in index order, regardless of completion order.
// Each unit completes a "<label>_shard" span and a progress report on
// the run's recorder; the recorded event set is identical at any worker
// count (only the interleaving varies), so metric snapshots stay
// deterministic alongside the results.
func Map[R any](n int, opts Options, fn func(i int) R) []R {
	if n <= 0 {
		return nil
	}
	out := make([]R, n)
	rec := obs.OrNop(opts.Recorder)
	label := opts.label()
	workers := opts.EffectiveWorkers()
	if workers > n {
		workers = n
	}
	rec.Add("engine_runs_total", 1)
	rec.Add("engine_shards_total", int64(n))
	rec.Add("engine_workers_total", int64(workers))
	var done int64
	runOne := func(i int) {
		sp := rec.Start(label + "_shard")
		out[i] = fn(i)
		sp.End()
		rec.Progress(label, atomic.AddInt64(&done, 1), int64(n))
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			runOne(i)
		}
		return out
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				runOne(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// MapMerge maps every index to a partial result on the pool, then folds
// the partials left-to-right in index order: the deterministic
// shard-and-merge primitive. With n == 0 it returns the zero R.
func MapMerge[R any](n int, opts Options, fn func(i int) R, merge func(acc, next R) R) R {
	var acc R
	parts := Map(n, opts, fn)
	sp := obs.OrNop(opts.Recorder).Start(opts.label() + "_merge")
	defer sp.End()
	for i, p := range parts {
		if i == 0 {
			acc = p
			continue
		}
		acc = merge(acc, p)
	}
	return acc
}
