package trace

import (
	"container/list"
	"sync"

	"tracescope/internal/obs"
)

// SourceCacheStats reports a CachedSource's effectiveness and its
// decoded-stream memory high-water mark.
type SourceCacheStats struct {
	// Hits counts fetches served without decoding — including waits on a
	// decode already in flight on another goroutine.
	Hits int64
	// Misses counts fetches that decoded the stream.
	Misses int64
	// Evictions counts streams dropped to stay within the limit.
	Evictions int64
	// Size is the current number of cached decoded streams.
	Size int
	// HighWater is the maximum number of decoded streams the cache held
	// at once (cached entries plus in-flight decodes) — the peak-memory
	// proxy: it never exceeds limit + concurrent fetchers.
	HighWater int
}

// CachedSource wraps a Source with a bounded LRU of decoded streams,
// filled by Stream — for callers that come back to a stream — and only
// consulted by StreamInto, the fetch of a one-pass sweep. It is safe for
// concurrent use by shard workers: lookups and bookkeeping are
// mutex-guarded, and concurrent Stream fetches of the same stream share
// one decode. With limit n and w concurrent fetchers, at most n + w
// decoded streams are held at any moment. Nothing is told of an eviction: a
// consumer holds a stream only for its own walk over it, so an evicted
// stream is garbage as soon as the walks using it end.
type CachedSource struct {
	src   Source
	rec   obs.Recorder
	limit int // fixed at construction

	mu      sync.Mutex
	lru     *list.List // of int (stream index); front = most recent
	entries map[int]*list.Element
	streams map[int]*Stream
	pending map[int]*pendingFetch
	stats   SourceCacheStats
}

type pendingFetch struct {
	done chan struct{}
	s    *Stream
	err  error
}

// NewCachedSource wraps src with an LRU of at most limit decoded
// streams. limit <= 0 means unbounded.
func NewCachedSource(src Source, limit int) *CachedSource {
	return &CachedSource{
		src:     src,
		rec:     obs.Nop,
		limit:   limit,
		lru:     list.New(),
		entries: make(map[int]*list.Element),
		streams: make(map[int]*Stream),
		pending: make(map[int]*pendingFetch),
	}
}

// SetRecorder routes the cache's hit/miss/eviction counters to r and
// forwards the recorder to the wrapped source when it is instrumentable
// (a *DirSource records per-stream decode spans), so one registry holds
// the whole out-of-core story. Call before concurrent use; nil restores
// the no-op recorder.
func (c *CachedSource) SetRecorder(r obs.Recorder) {
	c.mu.Lock()
	c.rec = obs.OrNop(r)
	c.mu.Unlock()
	if rs, ok := c.src.(interface{ SetRecorder(obs.Recorder) }); ok {
		rs.SetRecorder(r)
	}
}

// NumStreams returns the number of streams.
func (c *CachedSource) NumStreams() int { return c.src.NumStreams() }

// NumInstances returns the total number of scenario instances recorded.
func (c *CachedSource) NumInstances() int { return c.src.NumInstances() }

// NumEvents returns the total number of events across all streams.
func (c *CachedSource) NumEvents() int { return c.src.NumEvents() }

// TotalDuration sums the time spans of all streams.
func (c *CachedSource) TotalDuration() Duration { return c.src.TotalDuration() }

// Scenarios returns the sorted scenario names with instance counts.
func (c *CachedSource) Scenarios() []ScenarioCount { return c.src.Scenarios() }

// InstancesOf returns references to every instance of the named
// scenario ("" selects all).
func (c *CachedSource) InstancesOf(scenario string) []InstanceRef {
	return c.src.InstancesOf(scenario)
}

// InstanceMeta resolves a reference without decoding.
func (c *CachedSource) InstanceMeta(ref InstanceRef) Instance { return c.src.InstanceMeta(ref) }

// StreamMeta returns stream i's metadata without decoding.
func (c *CachedSource) StreamMeta(i int) StreamMeta { return c.src.StreamMeta(i) }

// Stream returns stream i, serving repeats from the LRU. A miss decodes
// via the wrapped source; concurrent fetches of the same stream share
// one decode.
func (c *CachedSource) Stream(i int) (*Stream, error) {
	c.mu.Lock()
	rec := c.rec
	if s := c.hitLocked(i); s != nil {
		c.mu.Unlock()
		rec.Add("source_cache_hits_total", 1)
		return s, nil
	}
	if p, ok := c.pending[i]; ok {
		c.stats.Hits++
		c.mu.Unlock()
		rec.Add("source_cache_hits_total", 1)
		<-p.done
		return p.s, p.err
	}
	p := &pendingFetch{done: make(chan struct{})}
	c.pending[i] = p
	c.stats.Misses++
	c.noteHeldLocked()
	c.mu.Unlock()
	rec.Add("source_cache_misses_total", 1)

	p.s, p.err = c.src.Stream(i)

	c.mu.Lock()
	delete(c.pending, i)
	var evicted int64
	if p.err == nil {
		c.entries[i] = c.lru.PushFront(i)
		c.streams[i] = p.s
		evicted = c.evictOverLimitLocked()
		c.noteHeldLocked()
	}
	c.mu.Unlock()
	close(p.done)
	if evicted > 0 {
		rec.Add("source_cache_evictions_total", evicted)
	}
	return p.s, p.err
}

// StreamInto is the fetch of a caller that reads stream i once and drops
// it (a corpus sweep): a stream the LRU holds is a hit, as in Stream,
// but a miss is decoded through the wrapped source into sc and *not*
// inserted — a sweep never comes back for it, so caching it would only
// evict a stream some Stream caller may want again. The miss is counted;
// Evictions, Size and HighWater do not move.
func (c *CachedSource) StreamInto(i int, sc *Scratch) (*Stream, error) {
	c.mu.Lock()
	rec := c.rec
	if s := c.hitLocked(i); s != nil {
		c.mu.Unlock()
		rec.Add("source_cache_hits_total", 1)
		return s, nil
	}
	c.stats.Misses++
	c.mu.Unlock()
	rec.Add("source_cache_misses_total", 1)
	return StreamInto(c.src, i, sc)
}

// hitLocked returns stream i if the LRU holds it, marking it most
// recently used and counting the hit; nil otherwise.
func (c *CachedSource) hitLocked(i int) *Stream {
	el, ok := c.entries[i]
	if !ok {
		return nil
	}
	c.lru.MoveToFront(el)
	c.stats.Hits++
	return c.streams[i]
}

// Limit returns the cache limit (<= 0 means unbounded).
func (c *CachedSource) Limit() int { return c.limit }

// Stats returns a snapshot of the cache counters.
func (c *CachedSource) Stats() SourceCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Size = len(c.streams)
	return s
}

// evictOverLimitLocked drops least-recently-used entries until the cache
// fits the limit, returning how many it dropped. The decoded streams are
// never reused: the garbage collector reclaims them.
func (c *CachedSource) evictOverLimitLocked() int64 {
	if c.limit <= 0 {
		return 0
	}
	var evicted int64
	for len(c.streams) > c.limit {
		el := c.lru.Back()
		if el == nil {
			break
		}
		i := c.lru.Remove(el).(int)
		delete(c.entries, i)
		delete(c.streams, i)
		c.stats.Evictions++
		evicted++
	}
	return evicted
}

// noteHeldLocked updates the decoded-stream high-water mark.
func (c *CachedSource) noteHeldLocked() {
	if held := len(c.streams) + len(c.pending); held > c.stats.HighWater {
		c.stats.HighWater = held
	}
}
