// Per-stream structural rules: the invariants every well-formed trace
// stream satisfies by construction (the simulator's recorder emits
// them; real collectors are supposed to). Each rule reports every
// violation, not just the first — a verifier that stops at the first
// fault cannot characterize how broken an artifact is.

package tracevet

import (
	"go/token"

	"tracescope/internal/diag"
	"tracescope/internal/trace"
)

// positionAt places a finding at a 1-based ordinal within an artifact.
func positionAt(artifact string, line int) token.Position {
	return token.Position{Filename: artifact, Line: line}
}

// vetStream runs the per-stream structural rules. Findings reference
// events and instances by 1-based ordinal via the position's Line.
func vetStream(s *trace.Stream, artifact string, opts Options) []diag.Diagnostic {
	var diags []diag.Diagnostic
	add := func(line int, rule string, format string, args ...interface{}) {
		diags = append(diags, vd(artifact, line, rule, diag.SevError, format, args...))
	}

	// maxTime bounds the tail-orphan tolerance of wait-pair: a wait the
	// recorder closed at end-of-stream (no unwait will ever arrive) ends
	// at or after every event's start time.
	var maxTime trace.Time
	for _, e := range s.Events {
		if e.Time > maxTime {
			maxTime = e.Time
		}
	}

	checkShape := opts.enabled("event-shape")
	checkTime := opts.enabled("time-monotone")
	checkStack := opts.enabled("stack-ref")
	var prev trace.Time
	for i, e := range s.Events {
		line := i + 1
		if checkShape {
			if !e.Type.Valid() {
				add(line, "event-shape", "event %d: invalid type %d", i, e.Type)
			}
			if e.Cost < 0 {
				add(line, "event-shape", "event %d: negative cost %d", i, e.Cost)
			}
			if e.TID < 0 {
				add(line, "event-shape", "event %d (%v): no thread attribution (TID %d)", i, e.Type, e.TID)
			}
			if e.Type == trace.Unwait && e.WTID < 0 {
				add(line, "event-shape", "event %d: unwait without a target thread", i)
			}
			if e.Type != trace.Unwait && e.WTID != trace.NoThread {
				add(line, "event-shape", "event %d (%v): stray wake target WTID %d on a non-unwait event", i, e.Type, e.WTID)
			}
		}
		if checkTime {
			if e.Time < 0 {
				add(line, "time-monotone", "event %d: negative timestamp %d", i, e.Time)
			}
			if i > 0 && e.Time < prev {
				add(line, "time-monotone", "event %d: timestamp %d before predecessor's %d (non-monotone)", i, e.Time, prev)
			}
		}
		prev = e.Time
		if checkStack && e.Stack != trace.NoStack && (e.Stack < 0 || int(e.Stack) >= s.NumStacks()) {
			add(line, "stack-ref", "event %d: stack %d out of range (%d stacks)", i, e.Stack, s.NumStacks())
		}
	}

	if checkStack {
		for id := 0; id < s.NumStacks(); id++ {
			frames := s.Stack(trace.StackID(id))
			if len(frames) == 0 {
				add(id+1, "stack-ref", "stack %d: empty", id)
			}
			for _, f := range frames {
				if f < 0 || int(f) >= s.NumFrames() {
					add(id+1, "stack-ref", "stack %d: frame %d out of range (%d frames)", id, f, s.NumFrames())
				}
			}
		}
	}

	if opts.enabled("wait-pair") {
		diags = append(diags, vetWaitPairs(s, artifact, maxTime)...)
	}

	if opts.enabled("instance-window") {
		dur := s.Duration()
		for j, in := range s.Instances {
			line := j + 1
			switch {
			case in.Scenario == "":
				add(line, "instance-window", "instance %d: empty scenario name", j)
			case in.End < in.Start:
				add(line, "instance-window", "instance %d (%s): end %d before start %d", j, in.Scenario, in.End, in.Start)
			case in.Start < 0:
				add(line, "instance-window", "instance %d (%s): negative start %d", j, in.Scenario, in.Start)
			// An instance may end after the last recorded event — the
			// recorder closes windows at their scheduled end, not at the
			// last event — but a window *starting* past every event
			// references data the stream does not hold.
			case in.Start > trace.Time(dur):
				add(line, "instance-window", "instance %d (%s): window [%d, %d] starts past the stream's span %d",
					j, in.Scenario, in.Start, in.End, dur)
			}
			if in.TID < 0 {
				add(line, "instance-window", "instance %d (%s): no initiating thread (TID %d)", j, in.Scenario, in.TID)
			}
		}
	}

	return diags
}

// vetWaitPairs checks the wait/unwait pairing contract: the recorder
// restores every woken wait's cost so it ends exactly at the waking
// unwait's timestamp. So (a) a wait with no unwait at its end is a
// violation unless it runs to the end of the stream (the recorder
// legitimately closes still-open waits at stream finish without
// emitting an unwait), and (b) an unwait whose target has no wait
// ending at that moment woke nothing.
func vetWaitPairs(s *trace.Stream, artifact string, maxTime trace.Time) []diag.Diagnostic {
	var diags []diag.Diagnostic
	type wake struct {
		target trace.ThreadID
		time   trace.Time
	}
	// One set, sized once, holds both sides of every pairing: whether an
	// unwait wakes the thread then, and whether a wait of it ends then.
	const unwaitAt, waitEndsAt = 1, 2
	n := 0
	for _, e := range s.Events {
		if e.Type == trace.Wait || e.Type == trace.Unwait {
			n++
		}
	}
	at := make(map[wake]uint8, n)
	for _, e := range s.Events {
		switch e.Type {
		case trace.Unwait:
			if e.WTID >= 0 {
				at[wake{e.WTID, e.Time}] |= unwaitAt
			}
		case trace.Wait:
			at[wake{e.TID, e.End()}] |= waitEndsAt
		}
	}
	for i, e := range s.Events {
		line := i + 1
		switch e.Type {
		case trace.Wait:
			if at[wake{e.TID, e.End()}]&unwaitAt != 0 {
				continue
			}
			// Tolerated tail orphan: the wait runs to (or past) the last
			// event — closed by the recorder at stream finish.
			if e.End() >= maxTime {
				continue
			}
			diags = append(diags, vd(artifact, line, "wait-pair", diag.SevError,
				"event %d: wait on thread %d ending at %d has no matching unwait", i, e.TID, e.End()))
		case trace.Unwait:
			if e.WTID < 0 {
				continue // reported by event-shape
			}
			if at[wake{e.WTID, e.Time}]&waitEndsAt == 0 {
				diags = append(diags, vd(artifact, line, "wait-pair", diag.SevError,
					"event %d: unwait at %d targets thread %d but no wait ends there", i, e.Time, e.WTID))
			}
		}
	}
	return diags
}

// vetStreamMeta cross-checks a stream against its index record. The
// index duplicates the stream's identity, event count, duration, and
// instance table — redundancy that turns most single-byte index
// corruption into a detectable disagreement.
func vetStreamMeta(s *trace.Stream, m trace.StreamMeta, artifact string, opts Options) []diag.Diagnostic {
	if !opts.enabled("index-meta") {
		return nil
	}
	var diags []diag.Diagnostic
	add := func(line int, format string, args ...interface{}) {
		diags = append(diags, vd(artifact, line, "index-meta", diag.SevError, format, args...))
	}
	if m.ID != s.ID {
		add(1, "index records stream id %q but the stream says %q", m.ID, s.ID)
	}
	if m.Events != len(s.Events) {
		add(1, "index records %d events but the stream holds %d", m.Events, len(s.Events))
	}
	if m.Duration != s.Duration() {
		add(1, "index records duration %d but the stream spans %d", int64(m.Duration), int64(s.Duration()))
	}
	if len(m.Instances) != len(s.Instances) {
		add(1, "index records %d instances but the stream holds %d", len(m.Instances), len(s.Instances))
		return diags
	}
	for j, in := range s.Instances {
		mi := m.Instances[j]
		if mi != in {
			add(j+1, "index instance %d (%s %d [%d, %d]) disagrees with the stream's (%s %d [%d, %d])",
				j, mi.Scenario, mi.TID, mi.Start, mi.End, in.Scenario, in.TID, in.Start, in.End)
		}
	}
	return diags
}
