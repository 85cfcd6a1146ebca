package engine

import (
	"reflect"
	"testing"

	"tracescope/internal/trace"
)

func refs(pairs ...[2]int) []trace.InstanceRef {
	out := make([]trace.InstanceRef, len(pairs))
	for i, p := range pairs {
		out[i] = trace.InstanceRef{Stream: p[0], Instance: p[1]}
	}
	return out
}

// TestShardByStreamNeverSplitsAStream is the engine's safety invariant:
// per-stream Wait-Graph builders are single-writer, so a stream's refs
// must land in exactly one shard.
func TestShardByStreamNeverSplitsAStream(t *testing.T) {
	var in []trace.InstanceRef
	for s := 0; s < 7; s++ {
		for i := 0; i < 5+s; i++ {
			in = append(in, trace.InstanceRef{Stream: s, Instance: i})
		}
	}
	for _, maxShards := range []int{1, 2, 3, 4, 8, 100} {
		shards := ShardByStreamWeighted(in, nil, maxShards)
		owner := make(map[int]int)
		total := 0
		for _, sh := range shards {
			total += len(sh.Refs)
			for _, r := range sh.Refs {
				if prev, ok := owner[r.Stream]; ok && prev != sh.Index {
					t.Fatalf("maxShards=%d: stream %d split across shards %d and %d",
						maxShards, r.Stream, prev, sh.Index)
				}
				owner[r.Stream] = sh.Index
			}
		}
		if total != len(in) {
			t.Fatalf("maxShards=%d: %d refs sharded, want %d", maxShards, total, len(in))
		}
		if len(shards) > maxShards {
			t.Fatalf("maxShards=%d: got %d shards", maxShards, len(shards))
		}
	}
}

func TestShardByStreamPreservesOrderWithinStream(t *testing.T) {
	in := refs([2]int{0, 2}, [2]int{1, 0}, [2]int{0, 5}, [2]int{1, 3}, [2]int{0, 9})
	shards := ShardByStreamWeighted(in, nil, 2)
	var flat []trace.InstanceRef
	for _, sh := range shards {
		flat = append(flat, sh.Refs...)
	}
	want := refs([2]int{0, 2}, [2]int{0, 5}, [2]int{0, 9}, [2]int{1, 0}, [2]int{1, 3})
	if !reflect.DeepEqual(flat, want) {
		t.Fatalf("sharded order %v, want stream-grouped %v", flat, want)
	}
}

func TestShardByStreamEmpty(t *testing.T) {
	if got := ShardByStreamWeighted(nil, nil, 4); got != nil {
		t.Fatalf("sharding no refs yielded %v", got)
	}
}

// TestMapOrderIndependentOfWorkers: results come back in index order at
// every pool size.
func TestMapOrderIndependentOfWorkers(t *testing.T) {
	const n = 100
	for _, workers := range []int{0, 1, 2, 4, 8, 64} {
		got := Map(n, Options{Workers: workers}, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: index %d carries %d", workers, i, v)
			}
		}
	}
}

// TestMapMergeFoldsInIndexOrder uses a non-commutative merge (string
// concatenation) to pin the deterministic fold order.
func TestMapMergeFoldsInIndexOrder(t *testing.T) {
	letters := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for _, workers := range []int{1, 2, 4, 8} {
		got := MapMerge(len(letters), Options{Workers: workers},
			func(i int) string { return letters[i] },
			func(acc, next string) string { return acc + next })
		if got != "abcdefgh" {
			t.Fatalf("workers=%d: merged %q, want abcdefgh", workers, got)
		}
	}
}

func TestMapMergeEmpty(t *testing.T) {
	got := MapMerge(0, Options{}, func(i int) int { return 1 },
		func(a, b int) int { return a + b })
	if got != 0 {
		t.Fatalf("empty merge yielded %d", got)
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
