package tracevet

import (
	"fmt"
	"strings"
	"testing"

	"tracescope/internal/diag"
	"tracescope/internal/trace"
)

// goodStream builds a minimal stream that satisfies every structural
// rule: one paired wait, running work, one instance window.
func goodStream(id string) *trace.Stream { return driverStream(id, "drv.sys") }

// driverStream is goodStream with its wait blocked in driver, so a
// stream naming a driver new to a corpus brings it a new frame and stack.
func driverStream(id, driver string) *trace.Stream {
	s := trace.NewStream(id)
	run := s.InternStackStrings("app.exe!main")
	wait := s.InternStackStrings(driver+"!block", "app.exe!main")
	s.Events = append(s.Events,
		trace.Event{Type: trace.Running, Time: 0, Cost: 100, TID: 1, WTID: trace.NoThread, Stack: run},
		trace.Event{Type: trace.Wait, Time: 100, Cost: 50, TID: 1, WTID: trace.NoThread, Stack: wait},
		trace.Event{Type: trace.Unwait, Time: 150, Cost: 0, TID: 2, WTID: 1, Stack: run},
		trace.Event{Type: trace.Running, Time: 150, Cost: 30, TID: 1, WTID: trace.NoThread, Stack: run},
	)
	s.Instances = append(s.Instances, trace.Instance{Scenario: "Scn", TID: 1, Start: 0, End: 180})
	return s
}

func TestVetStreamClean(t *testing.T) {
	s := goodStream("m1")
	if err := s.Validate(); err != nil {
		t.Fatalf("fixture invalid: %v", err)
	}
	if diags := VetStream(s, "s", Options{}); len(diags) != 0 {
		t.Fatalf("clean stream has findings: %v", diags)
	}
}

// TestVetStreamViolations seeds one violation per structural rule and
// checks the right rule fires.
func TestVetStreamViolations(t *testing.T) {
	cases := []struct {
		name   string
		rule   string
		mutate func(s *trace.Stream)
	}{
		{"non-monotone time", "time-monotone", func(s *trace.Stream) {
			s.Events[2].Time = 50 // before its predecessor at 100
		}},
		{"negative timestamp", "time-monotone", func(s *trace.Stream) {
			s.Events[0].Time = -1
		}},
		{"negative cost", "event-shape", func(s *trace.Stream) {
			s.Events[0].Cost = -5
		}},
		{"invalid type", "event-shape", func(s *trace.Stream) {
			s.Events[0].Type = 42
		}},
		{"negative tid", "event-shape", func(s *trace.Stream) {
			s.Events[0].TID = -3
		}},
		{"unwait without target", "event-shape", func(s *trace.Stream) {
			s.Events[2].WTID = trace.NoThread
		}},
		{"stray wake target", "event-shape", func(s *trace.Stream) {
			s.Events[0].WTID = 7
		}},
		{"unpaired wait", "wait-pair", func(s *trace.Stream) {
			s.Events[2].Time = 160 // unwait no longer lands on the wait's end
			s.Events[3].Time = 160
		}},
		{"unwait wakes nothing", "wait-pair", func(s *trace.Stream) {
			s.Events[2].WTID = 9 // no wait of thread 9 ends at 150
		}},
		{"stack out of range", "stack-ref", func(s *trace.Stream) {
			s.Events[0].Stack = 99
		}},
		{"empty scenario", "instance-window", func(s *trace.Stream) {
			s.Instances[0].Scenario = ""
		}},
		{"window starts past span", "instance-window", func(s *trace.Stream) {
			s.Instances[0].Start = 10_000
			s.Instances[0].End = 10_001
		}},
		{"instance without thread", "instance-window", func(s *trace.Stream) {
			s.Instances[0].TID = -1
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := goodStream("m1")
			c.mutate(s)
			diags := VetStream(s, "s", Options{})
			if len(diags) == 0 {
				t.Fatalf("%s: no findings", c.name)
			}
			found := false
			for _, d := range diags {
				if d.Analyzer == c.rule {
					found = true
				}
			}
			if !found {
				t.Fatalf("%s: rule %s did not fire; got %v", c.name, c.rule, diags)
			}
		})
	}
}

// TestVetStreamTailOrphanWaitTolerated: a wait running to the end of
// the stream is legitimately closed by the recorder without an unwait.
func TestVetStreamTailOrphanWaitTolerated(t *testing.T) {
	s := goodStream("m1")
	wait := s.InternStackStrings("drv.sys!block", "app.exe!main")
	s.Events = append(s.Events,
		trace.Event{Type: trace.Wait, Time: 160, Cost: 40, TID: 3, WTID: trace.NoThread, Stack: wait})
	if diags := VetStream(s, "s", Options{}); len(diags) != 0 {
		t.Fatalf("tail orphan wait flagged: %v", diags)
	}
}

// writeCorpus writes streams to a temporary directory with
// Corpus.WriteDir.
func writeCorpus(t *testing.T, streams ...*trace.Stream) string {
	t.Helper()
	dir := t.TempDir()
	if err := trace.NewCorpus(streams...).WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestVetDirMetaCrossCheck(t *testing.T) {
	rep := mustVetDir(t, writeCorpus(t, goodStream("m1"), goodStream("m2")), Options{})
	if rep.Findings() != 0 {
		t.Fatalf("clean corpus has findings: %v", rep.Diags)
	}
	if rep.Streams != 2 {
		t.Fatalf("Streams = %d, want 2", rep.Streams)
	}
}

func TestVetDirSemanticClean(t *testing.T) {
	dir := writeCorpus(t, goodStream("m1"), goodStream("m2"), goodStream("m3"))
	if rep := mustVetDir(t, dir, Options{Semantic: true}); rep.Findings() != 0 {
		t.Fatalf("semantic pass flagged a clean corpus: %v", rep.Diags)
	}
}

// renderReport flattens a report for byte-for-byte comparison.
func renderReport(rep *Report) string {
	var b strings.Builder
	for _, d := range rep.Diags {
		fmt.Fprintf(&b, "%s|%s|%s\n", d.Pos, d.Analyzer, d.Message)
	}
	fmt.Fprintf(&b, "streams=%d recoverable=%v tail=%d\n", rep.Streams, rep.Recoverable, rep.TailOffset)
	return b.String()
}

// TestVetDirCorruptStreamsDeterministicAcrossWorkers: the report over
// streams that break the per-stream rules is byte-identical at any
// worker count.
func TestVetDirCorruptStreamsDeterministicAcrossWorkers(t *testing.T) {
	var streams []*trace.Stream
	for i := 0; i < 8; i++ {
		s := goodStream(fmt.Sprintf("m%d", i))
		s.Events[2].Time = 50 // non-monotone + unpaired wait in every stream
		streams = append(streams, s)
	}
	dir := writeCorpus(t, streams...)
	want := renderReport(mustVetDir(t, dir, Options{Workers: 1}))
	for _, w := range []int{2, 4, 8} {
		if got := renderReport(mustVetDir(t, dir, Options{Workers: w})); got != want {
			t.Fatalf("workers=%d report differs:\n%s\nvs workers=1:\n%s", w, got, want)
		}
	}
	if !strings.Contains(want, "time-monotone") || !strings.Contains(want, "wait-pair") {
		t.Fatalf("expected rules missing from report:\n%s", want)
	}
}

func TestParseRules(t *testing.T) {
	if rules, err := ParseRules(""); err != nil || rules != nil {
		t.Fatalf("empty filter: got (%v, %v), want (nil, nil)", rules, err)
	}
	rules, err := ParseRules("wait-pair, time-monotone")
	if err != nil {
		t.Fatal(err)
	}
	if !rules["wait-pair"] || !rules["time-monotone"] || len(rules) != 2 {
		t.Fatalf("filter = %v", rules)
	}
	if _, err := ParseRules("no-such-rule"); err == nil {
		t.Fatal("unknown rule accepted")
	}
}

// TestRuleFilterRestricts: a disabled rule stays silent.
func TestRuleFilterRestricts(t *testing.T) {
	s := goodStream("m1")
	s.Events[0].Cost = -5 // event-shape violation
	if diags := VetStream(s, "s", Options{Rules: map[string]bool{"wait-pair": true}}); len(diags) != 0 {
		t.Fatalf("filtered run still reports: %v", diags)
	}
	if diags := VetStream(s, "s", Options{Rules: map[string]bool{"event-shape": true}}); len(diags) == 0 {
		t.Fatal("enabled rule silent")
	}
}

// TestRecoverableClassification: only all-note reports classify as
// recoverable.
func TestRecoverableClassification(t *testing.T) {
	notes := []diag.Diagnostic{vd("a", 1, "tail-truncated", diag.SevNote, "torn")}
	if rep := finishReport(notes, 1, 10, nil); !rep.Recoverable {
		t.Fatal("all-note report not recoverable")
	}
	mixed := []diag.Diagnostic{
		vd("a", 1, "tail-truncated", diag.SevNote, "torn"),
		vd("a", 2, "wait-pair", diag.SevError, "orphan"),
	}
	if rep := finishReport(mixed, 1, -1, nil); rep.Recoverable {
		t.Fatal("error report classified recoverable")
	}
	if rep := finishReport(nil, 1, -1, nil); rep.Recoverable {
		t.Fatal("clean report classified recoverable")
	}
}
