package trace

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"
)

func csvFixture() *Stream {
	s := NewStream("src")
	st := s.InternStackStrings("fs.sys!Read", "App!Main")
	s.SetThread(1, "App", "UI")
	s.SetThread(2, "App", "W0")
	s.AppendEvent(Event{Type: Running, Time: 0, Cost: 1000, TID: 1, WTID: NoThread, Stack: st})
	s.AppendEvent(Event{Type: Wait, Time: 1000, Cost: 4000, TID: 1, WTID: NoThread, Stack: st})
	s.AppendEvent(Event{Type: Unwait, Time: 5000, TID: 2, WTID: 1, Stack: st})
	s.AppendEvent(Event{Type: Running, Time: 9000, Cost: 1000, TID: 1, WTID: NoThread, Stack: st})
	s.Instances = append(s.Instances, Instance{Scenario: "S", TID: 1, Start: 0, End: 10000})
	return s
}

func TestEventsCSV(t *testing.T) {
	s := csvFixture()
	var buf bytes.Buffer
	if err := s.WriteEventsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	r := csv.NewReader(&buf)
	rows, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(s.Events)+1 {
		t.Fatalf("rows = %d, want %d", len(rows), len(s.Events)+1)
	}
	if rows[0][1] != "type" || rows[1][1] != "running" {
		t.Errorf("unexpected rows: %v %v", rows[0], rows[1])
	}
	if !strings.Contains(rows[1][7], "fs.sys!Read") {
		t.Errorf("stack column = %q", rows[1][7])
	}
}

func TestInstancesCSV(t *testing.T) {
	c := NewCorpus(csvFixture(), csvFixture())
	var buf bytes.Buffer
	if err := c.WriteInstancesCSV(&buf); err != nil {
		t.Fatal(err)
	}
	r := csv.NewReader(&buf)
	rows, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 { // header + 2 instances
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	if rows[1][2] != "S" || rows[2][0] != "1" {
		t.Errorf("instance rows wrong: %v %v", rows[1], rows[2])
	}
}
