package trace

import "math"

// Marks is a visit set over dense non-negative indexes (event numbers
// within one stream): the replacement for a per-walk map[EventID]bool.
// An index is in the set when its stamp equals the current epoch, so
// emptying the set is one increment, not a clear. The zero value is
// ready for Begin.
type Marks struct {
	stamp []uint32
	epoch uint32
}

// firstEpoch starts constructed mark sets just below the uint32 wrap, so
// every user crosses the wrap-around path within its first few walks
// instead of after four billion (the INITIAL_JIFFIES idea).
const firstEpoch = math.MaxUint32 - 2

// NewMarks returns an empty mark set.
func NewMarks() *Marks { return &Marks{epoch: firstEpoch} }

// Begin empties the set and sizes it for indexes below n; larger indexes
// still work, growing the set on first visit.
func (m *Marks) Begin(n int) {
	if n > len(m.stamp) {
		m.stamp = append(m.stamp, make([]uint32, n-len(m.stamp))...)
	}
	m.epoch++
	if m.epoch == 0 { // wrapped: stale stamps could alias the new epoch
		clear(m.stamp)
		m.epoch = 1
	}
}

// Has reports whether i is in the set.
func (m *Marks) Has(i int) bool { return i < len(m.stamp) && m.stamp[i] == m.epoch }

// Visit adds i to the set and reports whether it was absent.
func (m *Marks) Visit(i int) bool {
	if i >= len(m.stamp) {
		m.stamp = append(m.stamp, make([]uint32, i+1-len(m.stamp))...)
	}
	if m.stamp[i] == m.epoch {
		return false
	}
	m.stamp[i] = m.epoch
	return true
}
