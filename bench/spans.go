package main

import (
	"sync"
	"sync/atomic"
	"time"

	"tracescope"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call; nothing inside the program is touched. Times are nanoseconds
// since the log was created. Parent is the index of the span that caused
// this one (-1 for a root); ID is the pass, stream or request it belongs
// to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	ID     int    `json:"id"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog
// records nothing, so untraced runs call the same code.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// start opens a span and returns its index for end and for children.
func (l *spanLog) start(name string, parent, id int) int {
	if l == nil {
		return -1
	}
	now := int64(time.Since(l.t0))
	l.mu.Lock()
	l.spans = append(l.spans, span{Name: name, Start: now, Parent: parent, ID: id})
	i := len(l.spans) - 1
	l.mu.Unlock()
	return i
}

func (l *spanLog) end(i int) {
	if l == nil {
		return
	}
	now := int64(time.Since(l.t0))
	l.mu.Lock()
	l.spans[i].End = now
	l.mu.Unlock()
}

// mark returns a position; durations(name, mark) sees only spans opened
// after it.
func (l *spanLog) mark() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// durations lists, in start order, the lengths in seconds of the spans
// called name that were opened at or after mark.
func (l *spanLog) durations(name string, mark int) []float64 {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, s := range l.spans[mark:] {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// timedSource sits beneath the CachedSource, so it sees exactly the real
// decodes (cache misses) while impact's type assertions still find the
// real cache above it.
type timedSource struct {
	tracescope.Source
	log       *spanLog
	parent    int
	fileBytes []int64      // on-disk size of each stream file
	decoded   atomic.Int64 // bytes of stream files decoded
}

func (t *timedSource) Stream(i int) (*tracescope.Stream, error) {
	sp := t.log.start("trace.decode", t.parent, i)
	s, err := t.Source.Stream(i)
	t.log.end(sp)
	t.decoded.Add(t.fileBytes[i])
	return s, err
}
