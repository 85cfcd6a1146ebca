package trace

import (
	"math"
	"testing"
)

// cacheStream builds a stream of n stacks, every third one a driver
// stack, the rest application-only.
func cacheStream(id string, n int) *Stream {
	s := NewStream(id)
	for i := 0; i < n; i++ {
		fn := string(rune('A'+i%26)) + string(rune('a'+i/26%26))
		if i%3 == 0 {
			s.InternStackStrings("kernel!Wait", "fs.sys!"+fn, "App!Main")
		} else {
			s.InternStackStrings("kernel!Wait", "App!"+fn)
		}
	}
	return s
}

// TestFilterCacheMatchesFilter: through any interleaving of two streams
// of different sizes, the cache answers exactly what the filter does —
// including for NoStack, for IDs outside the table, and for stacks
// interned after the stream became current.
func TestFilterCacheMatchesFilter(t *testing.T) {
	f := AllDrivers()
	c := NewFilterCache(f)
	small, large := cacheStream("small", 5), cacheStream("large", 90)
	check := func(s *Stream, id StackID) {
		t.Helper()
		wantSig, wantOK := f.TopSignature(s, id)
		for pass := 0; pass < 2; pass++ { // resolve, then serve from the table
			if sig, ok := c.TopSignature(s, id); sig != wantSig || ok != wantOK {
				t.Fatalf("%s stack %d pass %d: got (%q, %v), want (%q, %v)", s.ID, id, pass, sig, ok, wantSig, wantOK)
			}
		}
		if c.MatchStack(s, id) != wantOK {
			t.Fatalf("%s stack %d: MatchStack disagrees with the filter", s.ID, id)
		}
	}
	for round := 0; round < 3; round++ {
		for _, s := range []*Stream{large, small, large} {
			for id := StackID(-2); int(id) < s.NumStacks()+2; id++ {
				check(s, id)
			}
		}
	}
	late := small.InternStackStrings("kernel!Wait", "net.sys!Late")
	check(small, late)
	if sig, _ := c.TopSignature(small, late); sig != "net.sys!Late" {
		t.Fatalf("late stack resolved to %q", sig)
	}
}

// TestFilterCacheHoldsOnlyTheCurrentStream: the cache references the
// stream it is folding and nothing of any other; Forget drops that too.
func TestFilterCacheHoldsOnlyTheCurrentStream(t *testing.T) {
	c := NewFilterCache(AllDrivers())
	a, b := cacheStream("a", 40), cacheStream("b", 8)
	for id := 0; id < a.NumStacks(); id++ {
		c.TopSignature(a, StackID(id))
	}
	c.BeginWalk(b)
	if c.cur != b {
		t.Fatal("BeginWalk did not make its stream current")
	}
	for i, e := range c.sigs[:cap(c.sigs)] {
		if e != (stackSig{}) {
			t.Fatalf("entry %d still holds %+v of the previous stream", i, e)
		}
	}
	c.TopSignature(b, 0)
	c.Forget()
	if c.cur != nil || len(c.sigs) != 0 {
		t.Fatalf("after Forget: cur=%v, %d table entries", c.cur, len(c.sigs))
	}
	for i, e := range c.sigs[:cap(c.sigs)] {
		if e != (stackSig{}) {
			t.Fatalf("after Forget: entry %d still holds %+v", i, e)
		}
	}
	if sig, ok := c.TopSignature(b, 0); !ok || sig != "fs.sys!Aa" {
		t.Fatalf("after Forget the cache must resolve afresh, got (%q, %v)", sig, ok)
	}
}

// TestMarksAcrossEpochWrap: a mark set is empty after every Begin, also
// across the uint32 epoch wrap — which firstEpoch places three walks in —
// and across growth by Begin's hint and by Visit.
func TestMarksAcrossEpochWrap(t *testing.T) {
	m := NewMarks()
	if m.epoch < math.MaxUint32-8 {
		t.Fatalf("NewMarks epoch %d is not near the wrap", m.epoch)
	}
	wrapped := false
	for walk := 0; walk < 8; walk++ {
		before := m.epoch
		n := 4 + 3*walk // the set grows a little every walk
		m.Begin(n)
		wrapped = wrapped || m.epoch < before
		for i := 0; i < n+5; i += 2 { // past the hint: Visit grows the set
			if m.Has(i) {
				t.Fatalf("walk %d: %d already in a fresh set", walk, i)
			}
			if !m.Visit(i) {
				t.Fatalf("walk %d: first Visit(%d) reported a revisit", walk, i)
			}
			if m.Visit(i) || !m.Has(i) {
				t.Fatalf("walk %d: second Visit(%d) not reported as a revisit", walk, i)
			}
			if m.Has(i + 1) {
				t.Fatalf("walk %d: unvisited %d reported present", walk, i+1)
			}
		}
	}
	if !wrapped {
		t.Fatal("eight walks never crossed the epoch wrap")
	}
	var zero Marks
	zero.Begin(0)
	if !zero.Visit(3) || zero.Visit(3) {
		t.Fatal("zero-value Marks does not work after Begin")
	}
}
