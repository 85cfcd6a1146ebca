package impact

import (
	"sync"

	"tracescope/internal/trace"
	"tracescope/internal/waitgraph"
)

// DefaultGraphCacheLimit bounds the per-analyzer Wait-Graph cache. A
// cached graph is a slice of pointers into its stream's shared node
// store, so entries are small relative to the streams themselves; the
// bound exists to keep corpora larger than RAM-resident graph sets
// analysable.
const DefaultGraphCacheLimit = 8192

// CacheStats reports Wait-Graph cache effectiveness.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Size      int
}

// graphCache is a bounded FIFO InstanceRef → Wait-Graph cache. The map
// is guarded by a mutex so concurrent shards may share it; graph
// construction itself stays race-free because the engine never assigns
// one stream to two shards.
type graphCache struct {
	mu    sync.Mutex
	limit int
	m     map[trace.InstanceRef]*waitgraph.Graph
	fifo  []trace.InstanceRef
	stats CacheStats
}

func newGraphCache(limit int) *graphCache {
	return &graphCache{limit: limit, m: make(map[trace.InstanceRef]*waitgraph.Graph)}
}

func (c *graphCache) get(ref trace.InstanceRef) *waitgraph.Graph {
	c.mu.Lock()
	defer c.mu.Unlock()
	if g, ok := c.m[ref]; ok {
		c.stats.Hits++
		return g
	}
	c.stats.Misses++
	return nil
}

// put inserts the graph, returning how many entries were evicted to
// make room.
func (c *graphCache) put(ref trace.InstanceRef, g *waitgraph.Graph) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.limit <= 0 {
		return 0
	}
	if _, ok := c.m[ref]; ok {
		return 0
	}
	var evicted int64
	for len(c.m) >= c.limit && len(c.fifo) > 0 {
		old := c.fifo[0]
		c.fifo = c.fifo[1:]
		delete(c.m, old)
		c.stats.Evictions++
		evicted++
	}
	c.m[ref] = g
	c.fifo = append(c.fifo, ref)
	return evicted
}

// dropStream evicts every cached graph belonging to one stream. Called
// from the source's eviction hook: once the decoded stream leaves the
// source cache its graphs must not be served — they would keep the
// whole decoded stream resident past the cache bound.
// Returns the number of entries dropped.
func (c *graphCache) dropStream(stream int) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var dropped int64
	kept := c.fifo[:0]
	for _, ref := range c.fifo {
		if ref.Stream == stream {
			delete(c.m, ref)
			c.stats.Evictions++
			dropped++
			continue
		}
		kept = append(kept, ref)
	}
	c.fifo = kept
	return dropped
}

func (c *graphCache) setLimit(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.limit = n
	for len(c.m) > n && len(c.fifo) > 0 {
		old := c.fifo[0]
		c.fifo = c.fifo[1:]
		delete(c.m, old)
		c.stats.Evictions++
	}
}

func (c *graphCache) statsSnapshot() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Size = len(c.m)
	return s
}
