package scenario

import (
	"bytes"
	"errors"
	"testing"

	"tracescope/internal/trace"
)

func TestMotivatingCaseShape(t *testing.T) {
	s := MotivatingCase()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	var tabCreate *trace.Instance
	for i := range s.Instances {
		if s.Instances[i].Scenario == BrowserTabCreate {
			tabCreate = &s.Instances[i]
		}
	}
	if tabCreate == nil {
		t.Fatal("no BrowserTabCreate instance recorded")
	}
	if d := tabCreate.Duration(); d < 800*trace.Millisecond {
		t.Errorf("tab create took %v, want over 800ms (the paper's case)", d)
	}
	// The chain involves all three drivers.
	want := map[string]bool{
		"fv.sys!QueryFileTable": false,
		"fs.sys!AcquireMDU":     false,
		"se.sys!ReadDecrypt":    false,
	}
	for _, e := range s.Events {
		for _, f := range s.StackStrings(e.Stack) {
			if _, ok := want[f]; ok {
				want[f] = true
			}
		}
	}
	for f, seen := range want {
		if !seen {
			t.Errorf("signature %s never appeared in the trace", f)
		}
	}
}

func TestGenerateSmallCorpus(t *testing.T) {
	cfg := Config{Seed: 42, Streams: 4, Episodes: 6}
	c := Generate(cfg)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.NumStreams() != 4 {
		t.Fatalf("got %d streams, want 4", c.NumStreams())
	}
	if c.NumInstances() == 0 {
		t.Fatal("no instances generated")
	}
	// Instances must cover several scenarios, and durations must be
	// positive.
	scens := c.Scenarios()
	if len(scens) < 4 {
		t.Errorf("only %d scenarios appeared: %v", len(scens), scens)
	}
	for _, s := range c.Streams {
		for _, in := range s.Instances {
			if in.Duration() <= 0 {
				t.Errorf("instance %v has non-positive duration", in)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{Seed: 7, Streams: 2, Episodes: 4})
	b := Generate(Config{Seed: 7, Streams: 2, Episodes: 4})
	if a.NumEvents() != b.NumEvents() {
		t.Fatalf("event counts differ: %d vs %d", a.NumEvents(), b.NumEvents())
	}
	for si := range a.Streams {
		for i := range a.Streams[si].Events {
			if a.Streams[si].Events[i] != b.Streams[si].Events[i] {
				t.Fatalf("stream %d event %d differs", si, i)
			}
		}
	}
	c := Generate(Config{Seed: 8, Streams: 2, Episodes: 4})
	if a.NumEvents() == c.NumEvents() && a.TotalDuration() == c.TotalDuration() {
		t.Error("different seeds produced identical corpora")
	}
}

func TestThresholdsKnown(t *testing.T) {
	for _, name := range Selected() {
		tf, ts, ok := Thresholds(name)
		if !ok {
			t.Errorf("no thresholds for %s", name)
			continue
		}
		if tf <= 0 || ts <= tf {
			t.Errorf("%s: bad thresholds Tfast=%v Tslow=%v", name, tf, ts)
		}
	}
	if _, _, ok := Thresholds("NoSuchScenario"); ok {
		t.Error("unknown scenario reported thresholds")
	}
}

func TestEveryScenarioHasEntryFrame(t *testing.T) {
	for _, name := range All() {
		d, ok := Lookup(name)
		frame := d.EntryFrame
		if !ok || frame == "" {
			t.Errorf("%s: no entry frame", name)
			continue
		}
		if got := trace.Module(frame); got != d.Process {
			t.Errorf("%s: entry frame module %q != process %q", name, got, d.Process)
		}
	}
	if _, ok := Lookup("NoSuch"); ok {
		t.Error("unknown scenario has an entry frame")
	}
}

func TestEntryFramesAppearInGeneratedTraces(t *testing.T) {
	c := Generate(Config{Seed: 12, Streams: 3, Episodes: 8})
	seen := map[string]bool{}
	for _, s := range c.Streams {
		for _, in := range s.Instances {
			if seen[in.Scenario] {
				continue
			}
			d, _ := Lookup(in.Scenario)
			frame := d.EntryFrame
			// Some event of the initiating thread inside the window must
			// carry the entry frame.
			for _, e := range s.Events {
				if e.TID != in.TID || e.Time < in.Start || e.Time >= in.End {
					continue
				}
				for _, f := range s.StackStrings(e.Stack) {
					if f == frame {
						seen[in.Scenario] = true
					}
				}
				if seen[in.Scenario] {
					break
				}
			}
			if !seen[in.Scenario] {
				t.Errorf("%s: entry frame %s absent from instance events", in.Scenario, frame)
				seen[in.Scenario] = true // report once
			}
		}
	}
}

func TestGenerateStreamMatchesGenerate(t *testing.T) {
	cfg := Config{Seed: 3, Streams: 6, Episodes: 4}
	corpus := Generate(cfg)
	for _, i := range []int{0, 3, 5} {
		var want, got bytes.Buffer
		if err := corpus.Streams[i].WriteBinary(&want); err != nil {
			t.Fatal(err)
		}
		if err := GenerateStream(cfg, i).WriteBinary(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Errorf("GenerateStream(%d) differs from Generate's stream %d", i, i)
		}
	}
}

func TestGenerateEachOrderAndBytes(t *testing.T) {
	cfg := Config{Seed: 3, Streams: 9, Episodes: 3, Parallelism: 4}
	corpus := Generate(cfg)
	var got []int
	err := GenerateEach(cfg, func(i int, s *trace.Stream) error {
		got = append(got, i)
		var a, b bytes.Buffer
		if err := corpus.Streams[i].WriteBinary(&a); err != nil {
			return err
		}
		if err := s.WriteBinary(&b); err != nil {
			return err
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("stream %d differs under GenerateEach", i)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("delivery out of order: %v", got)
		}
	}
	if len(got) != cfg.Streams {
		t.Fatalf("delivered %d of %d streams", len(got), cfg.Streams)
	}
}

func TestGenerateEachStopsOnError(t *testing.T) {
	cfg := Config{Seed: 1, Streams: 12, Episodes: 2, Parallelism: 3}
	calls := 0
	sentinel := errors.New("stop")
	err := GenerateEach(cfg, func(i int, s *trace.Stream) error {
		calls++
		if i == 4 {
			return sentinel
		}
		return nil
	})
	if err != sentinel {
		t.Fatalf("want sentinel error, got %v", err)
	}
	if calls != 5 {
		t.Fatalf("fn called %d times after early stop, want 5", calls)
	}
}
