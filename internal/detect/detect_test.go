package detect

import (
	"testing"

	"tracescope/internal/scenario"
	"tracescope/internal/trace"
)

// MatchStats quantifies agreement between detected and recorded
// instances.
type MatchStats struct {
	Recorded int
	Detected int
	// Matched counts recorded instances with a detected instance of the
	// same scenario on the same thread whose span covers at least 80% of
	// the recorded one.
	Matched int
}

// Recall is the fraction of recorded instances that were detected.
func (m MatchStats) Recall() float64 {
	if m.Recorded == 0 {
		return 0
	}
	return float64(m.Matched) / float64(m.Recorded)
}

// Compare evaluates detection against a stream's recorded ground truth.
func Compare(recorded, detected []trace.Instance) MatchStats {
	st := MatchStats{Recorded: len(recorded), Detected: len(detected)}
	for _, r := range recorded {
		for _, d := range detected {
			if d.TID != r.TID || d.Scenario != r.Scenario {
				continue
			}
			lo, hi := max(r.Start, d.Start), min(r.End, d.End)
			if hi <= lo {
				continue
			}
			overlap := float64(hi - lo)
			if span := float64(r.End - r.Start); span > 0 && overlap/span >= 0.8 {
				st.Matched++
				break
			}
		}
	}
	return st
}

func catalogRules(t *testing.T) []Rule {
	t.Helper()
	var rules []Rule
	for _, name := range scenario.All() {
		frame, ok := scenario.EntryFrame(name)
		if !ok || frame == "" {
			t.Fatalf("no entry frame for %s", name)
		}
		rules = append(rules, Rule{EntryFrame: frame, Scenario: name})
	}
	return rules
}

func TestDetectOnMotivatingCase(t *testing.T) {
	s := scenario.MotivatingCase()
	d := NewDetector(catalogRules(t))
	detected := d.Instances(s, 50*trace.Millisecond)
	stats := Compare(s.Instances, detected)
	if stats.Matched != stats.Recorded {
		t.Errorf("matched %d of %d recorded instances (detected %d)",
			stats.Matched, stats.Recorded, stats.Detected)
		for _, in := range detected {
			t.Logf("detected: %+v", in)
		}
		for _, in := range s.Instances {
			t.Logf("recorded: %+v", in)
		}
	}
}

func TestDetectOnGeneratedCorpus(t *testing.T) {
	corpus := scenario.Generate(scenario.Config{Seed: 8, Streams: 6, Episodes: 8})
	d := NewDetector(catalogRules(t))
	var total MatchStats
	for _, s := range corpus.Streams {
		detected := d.Instances(s, 50*trace.Millisecond)
		st := Compare(s.Instances, detected)
		total.Recorded += st.Recorded
		total.Detected += st.Detected
		total.Matched += st.Matched
	}
	t.Logf("recall %.1f%% (%d/%d recorded, %d detected)",
		total.Recall()*100, total.Matched, total.Recorded, total.Detected)
	if total.Recall() < 0.9 {
		t.Errorf("detection recall %.2f below 0.9", total.Recall())
	}
	// Detection must not hallucinate wildly more instances than exist.
	if total.Detected > total.Recorded*3/2 {
		t.Errorf("detected %d instances for %d recorded: over-splitting", total.Detected, total.Recorded)
	}
}

func TestDetectSplitsDistantSpans(t *testing.T) {
	s := trace.NewStream("d")
	st := s.InternStackStrings("fs.sys!Read", "Browser!TabCreate", "Browser!Main")
	// Two bursts 1s apart on the same thread: two instances.
	for _, base := range []trace.Time{0, trace.Time(trace.Second)} {
		for i := 0; i < 3; i++ {
			s.AppendEvent(trace.Event{
				Type: trace.Running, Time: base + trace.Time(i)*trace.Time(trace.Millisecond),
				Cost: trace.Millisecond, TID: 1, WTID: trace.NoThread, Stack: st,
			})
		}
	}
	d := NewDetector([]Rule{{EntryFrame: "Browser!TabCreate", Scenario: "BrowserTabCreate"}})
	got := d.Instances(s, 50*trace.Millisecond)
	if len(got) != 2 {
		t.Fatalf("detected %d instances, want 2", len(got))
	}
	if got[0].End >= got[1].Start {
		t.Error("spans overlap")
	}
}

func TestDetectIgnoresUnknownFrames(t *testing.T) {
	s := trace.NewStream("d")
	st := s.InternStackStrings("App!Other")
	s.AppendEvent(trace.Event{Type: trace.Running, Time: 0, Cost: 1000, TID: 1, WTID: trace.NoThread, Stack: st})
	d := NewDetector([]Rule{{EntryFrame: "Browser!TabCreate", Scenario: "BrowserTabCreate"}})
	if got := d.Instances(s, 0); len(got) != 0 {
		t.Errorf("detected %d instances from unknown frames", len(got))
	}
}
