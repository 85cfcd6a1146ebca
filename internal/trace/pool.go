package trace

import (
	"sync"

	"tracescope/internal/trace/colfmt"
)

// decodeBufs is the complete buffer set one v4 stream decode consumes:
// the raw file bytes, the event/frame/stack/instance slices, the stack
// arena backing every stack's frame list, the global→local scratch, the
// colfmt column decoder, and the Stream struct itself. Recycling a
// decoded stream returns all of it to the pool in one step.
type decodeBufs struct {
	stream Stream

	raw          []byte
	events       []Event
	frames       []string
	frameGlobals []FrameID // local frame table as global IDs (g2l reset list)
	stackGlobals []StackID // local stack table as global IDs
	stacks       [][]FrameID
	arena        []FrameID // backing store for stacks' frame lists
	instances    []Instance
	threads      map[ThreadID]ThreadInfo
	g2l          []FrameID // global frame ID → local, -1 when absent
	dec          *colfmt.Decoder
}

// StreamPool is a freelist of v4 decode buffers. DirSource draws from
// it on every v4 decode; buffers only return via Recycle, so sources
// whose callers never recycle degrade gracefully to ordinary GC-managed
// allocation.
//
// The pooling contract (DESIGN.md §10): a decoded stream and everything
// reachable from it — events, stack slices, instance records — is valid
// only until the stream is recycled. Only a caller that holds the sole
// reference to a stream may recycle it; streams served through a
// CachedSource are shared and never recycled. Frame strings are exempt:
// they live in the corpus InternTable and are never recycled.
type StreamPool struct {
	mu   sync.Mutex
	free []*decodeBufs

	gets     int64
	reuses   int64
	recycles int64
}

// StreamPoolStats reports pool effectiveness.
type StreamPoolStats struct {
	// Gets counts buffer-set checkouts (one per v4 decode).
	Gets int64
	// Reuses counts checkouts served from the freelist.
	Reuses int64
	// Recycles counts buffer sets returned.
	Recycles int64
}

// NewStreamPool returns an empty pool.
func NewStreamPool() *StreamPool { return &StreamPool{} }

// get checks a buffer set out of the pool, allocating one when the
// freelist is empty.
func (p *StreamPool) get() *decodeBufs {
	p.mu.Lock()
	p.gets++
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.reuses++
		p.mu.Unlock()
		return b
	}
	p.mu.Unlock()
	return &decodeBufs{dec: colfmt.NewDecoder(eventColumns)}
}

// put returns a buffer set whose stream was never handed out (decode
// errors) straight to the freelist.
func (p *StreamPool) put(b *decodeBufs) {
	p.mu.Lock()
	p.recycles++
	p.free = append(p.free, b)
	p.mu.Unlock()
}

// Recycle returns a decoded stream's buffers to the pool. The caller
// must guarantee that no references to the stream, its events, stacks,
// or instances remain — see the pooling contract above. Streams not
// decoded from this pool's source (wire-decoded or generated streams) have
// no attached buffers and are ignored.
func (p *StreamPool) Recycle(s *Stream) {
	if s == nil || s.bufs == nil {
		return
	}
	b := s.bufs
	// Detach first so a second Recycle of the same stream is a no-op
	// instead of a double-free.
	s.bufs = nil
	p.put(b)
}

// Stats returns a snapshot of the pool counters.
func (p *StreamPool) Stats() StreamPoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return StreamPoolStats{Gets: p.gets, Reuses: p.reuses, Recycles: p.recycles}
}
