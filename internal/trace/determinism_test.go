package trace

import (
	"bytes"
	"reflect"
	"testing"
)

// TestBinaryEncodeByteEquality pins the codec's determinism: encoding
// the same stream repeatedly must yield identical bytes even though the
// thread table is a map (sortedThreadIDs orders it). A byte-unstable
// encoder would defeat corpus diffing and the engine's bit-for-bit
// equivalence tests.
func TestBinaryEncodeByteEquality(t *testing.T) {
	s := randomStream(7)
	for tid := ThreadID(0); tid < 8; tid++ {
		s.SetThread(tid, "P", "T")
	}
	var first bytes.Buffer
	if err := s.WriteBinary(&first); err != nil {
		t.Fatal(err)
	}
	for run := 1; run < 4; run++ {
		var buf bytes.Buffer
		if err := s.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), buf.Bytes()) {
			t.Fatalf("binary encoding run %d differs from run 0", run)
		}
	}
}

// TestScenariosRepeatedEquality pins Scenarios(): the counts are
// collected from a map, so repeated calls must agree exactly.
func TestScenariosRepeatedEquality(t *testing.T) {
	c := &Corpus{}
	for i := 0; i < 4; i++ {
		s := randomStream(int64(20 + i))
		s.Instances = append(s.Instances,
			Instance{Scenario: "a", TID: 1},
			Instance{Scenario: "b", TID: 2},
			Instance{Scenario: "a", TID: 3},
		)
		c.Streams = append(c.Streams, s)
	}
	first := c.Scenarios()
	if len(first) == 0 {
		t.Fatal("no scenarios")
	}
	for run := 1; run < 4; run++ {
		if got := c.Scenarios(); !reflect.DeepEqual(first, got) {
			t.Fatalf("Scenarios() run %d = %v, want %v", run, got, first)
		}
	}
	for i := 1; i < len(first); i++ {
		if first[i-1].Name >= first[i].Name {
			t.Fatalf("scenarios not name-sorted: %v", first)
		}
	}
}
