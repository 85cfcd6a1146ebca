// Package detect derives scenario instances from raw trace streams. The
// corpus generator records ground-truth instance tuples alongside each
// stream, but a real collection pipeline has to reconstruct them: an
// instance is the maximal span on one thread whose events carry the
// scenario's entry-point frame (Browser!TabCreate and friends), the same
// way performance analysts map predefined scenarios onto production ETW
// traces (§2.1).
package detect

import (
	"sort"

	"tracescope/internal/trace"
)

// Rule maps a scenario entry-point frame to the scenario it denotes.
type Rule struct {
	// EntryFrame is the "module!function" frame that an initiating
	// thread carries for the scenario's whole execution.
	EntryFrame string
	// Scenario is the name to record.
	Scenario string
}

// Detector finds scenario instances by entry-point frames.
type Detector struct {
	byFrame map[string]string
}

// NewDetector builds a detector from rules.
func NewDetector(rules []Rule) *Detector {
	d := &Detector{byFrame: make(map[string]string, len(rules))}
	for _, r := range rules {
		d.byFrame[r.EntryFrame] = r.Scenario
	}
	return d
}

// Instances reconstructs the scenario instances of a stream: for every
// thread, maximal event spans whose callstacks contain a rule's entry
// frame become instances of that rule's scenario. Spans are extended by
// each overlapping event (a closing wait's cost counts toward the span's
// end). Gap separates two spans of the same scenario on one thread.
func (d *Detector) Instances(s *trace.Stream, gap trace.Duration) []trace.Instance {
	type span struct {
		scenario   string
		start, end trace.Time
	}
	open := make(map[trace.ThreadID]*span)
	var out []trace.Instance

	flush := func(tid trace.ThreadID) {
		if sp := open[tid]; sp != nil {
			out = append(out, trace.Instance{
				Scenario: sp.scenario, TID: tid, Start: sp.start, End: sp.end,
			})
			delete(open, tid)
		}
	}

	// Events are time-ordered; walk them once.
	for _, e := range s.Events {
		scenario := d.scenarioOf(s, e.Stack)
		sp := open[e.TID]
		if scenario == "" {
			continue
		}
		if sp != nil && sp.scenario == scenario && e.Time <= sp.end+trace.Time(gap) {
			if end := e.End(); end > sp.end {
				sp.end = end
			}
			continue
		}
		if sp != nil {
			flush(e.TID)
		}
		open[e.TID] = &span{scenario: scenario, start: e.Time, end: e.End()}
	}
	for tid := range open {
		flush(tid)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].TID < out[j].TID
	})
	return out
}

func (d *Detector) scenarioOf(s *trace.Stream, stack trace.StackID) string {
	for _, fid := range s.Stack(stack) {
		if scen, ok := d.byFrame[s.Frame(fid)]; ok {
			return scen
		}
	}
	return ""
}
