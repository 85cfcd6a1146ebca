// Package trace defines the execution-trace schema used throughout
// tracescope: the four-event trace stream of Yu et al. (ASPLOS 2014, §2.1),
// callstacks with frame/stack interning, scenario-instance records, and a
// container for corpora of streams.
//
// A trace stream is a time-ordered sequence of events. Each event is one of:
//
//   - Running: a CPU-usage sample taken at a constant interval (1 ms in ETW
//     and DTrace), attributed to the sampled thread's current callstack.
//   - Wait: the thread entered the waiting state (blocking lock acquire,
//     I/O wait, ...). Cost holds the full wait duration, restored from the
//     matching unwait.
//   - Unwait: a running thread signalled a waiting thread (lock release,
//     I/O completion). WTID names the woken thread.
//   - HardwareService: a hardware operation with start timestamp and
//     duration, attributed to a device pseudo-thread.
//
// Streams intern callstacks: frames ("module!function" strings) live in a
// per-stream frame table and stacks in a stack table; events carry 32-bit
// stack IDs. This mirrors how ETW persists stacks and keeps corpora compact.
package trace

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Time is a timestamp in microseconds from the start of the stream.
type Time int64

// Duration is a time span in microseconds.
type Duration int64

// Milliseconds converts d to floating-point milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / 1000.0 }

// Seconds converts d to floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / 1e6 }

// String renders the duration in a human-friendly unit: whole
// microseconds below a millisecond, else milliseconds or seconds to two
// decimals.
func (d Duration) String() string { return string(d.Append(nil)) }

// Append appends String's rendering of d to b. It is the form renderers
// that write many durations use, and it formats without fmt.
func (d Duration) Append(b []byte) []byte {
	switch {
	case d >= Second:
		return append(appendHundredths(b, d, Second/100, d.Seconds()), 's')
	case d >= Millisecond:
		return append(appendHundredths(b, d, Millisecond/100, d.Milliseconds()), "ms"...)
	default:
		return append(strconv.AppendInt(b, int64(d), 10), "us"...)
	}
}

// appendHundredths appends d/(100·unit) to two decimals, rounded as
// strconv's 'f' format rounds f, the same quotient in floating point.
// Rounding the integer remainder agrees with it whenever the remainder
// is not exactly half a unit: the float quotient errs by less than
// half a microsecond below 2^52 µs, and a remainder off the midpoint is
// at least a microsecond from it. An exact tie, where the float's binary
// value decides, and larger durations take the float path.
func appendHundredths(b []byte, d, unit Duration, f float64) []byte {
	h, r := d/unit, d%unit
	if 2*r == unit || d >= 1<<52 {
		return strconv.AppendFloat(b, f, 'f', 2, 64)
	}
	if 2*r > unit {
		h++
	}
	b = strconv.AppendInt(b, int64(h/100), 10)
	return append(b, '.', byte('0'+h%100/10), byte('0'+h%10))
}

// Millisecond is one millisecond expressed as a Duration.
const Millisecond Duration = 1000

// Second is one second expressed as a Duration.
const Second Duration = 1e6

// EventType discriminates the four trace-event kinds of the schema.
type EventType uint8

// The four event types of the trace-stream schema (§2.1).
const (
	Running EventType = iota
	Wait
	Unwait
	HardwareService
	numEventTypes
)

// String implements fmt.Stringer.
func (t EventType) String() string {
	switch t {
	case Running:
		return "running"
	case Wait:
		return "wait"
	case Unwait:
		return "unwait"
	case HardwareService:
		return "hwservice"
	default:
		return fmt.Sprintf("EventType(%d)", uint8(t))
	}
}

// Valid reports whether t is one of the defined event types.
func (t EventType) Valid() bool { return t < numEventTypes }

// ThreadID identifies a thread within a stream. Device pseudo-threads use
// IDs allocated from the same space. NoThread marks an absent thread field.
type ThreadID int32

// NoThread is the zero-information value for thread fields that do not
// apply to an event (for example WTID on a running event).
const NoThread ThreadID = -1

// StackID indexes a stream's stack table. NoStack marks an absent stack.
type StackID int32

// NoStack marks an event with no recorded callstack.
const NoStack StackID = -1

// FrameID indexes a stream's frame table.
type FrameID int32

// Event is a single tracing event. Fields follow the paper's schema:
// callstack e.S (Stack), timestamp e.T (Time), cost e.C (Cost), thread
// e.TID, and unwaited thread e.WTID.
type Event struct {
	Type  EventType
	Time  Time
	Cost  Duration
	TID   ThreadID
	WTID  ThreadID
	Stack StackID
}

// End returns the completion time of the event (Time + Cost).
func (e Event) End() Time { return e.Time + Time(e.Cost) }

// EventID identifies an event globally within a corpus, for distinct-wait
// deduplication across scenario instances (Dwaitdist, §3.2).
type EventID struct {
	Stream int // index of the stream within its corpus
	Index  int // index of the event within the stream
}

// ThreadInfo carries descriptive metadata for a thread, used when rendering
// thread-level snapshots (Figure 1 style).
type ThreadInfo struct {
	Process string
	Name    string
}

// String renders the conventional "Process!Name" form.
func (ti ThreadInfo) String() string {
	if ti.Process == "" && ti.Name == "" {
		return "?"
	}
	return ti.Process + "!" + ti.Name
}

// Instance is a scenario-instance record: the execution of scenario
// Scenario initiated by thread TID between Start and End within its stream
// (the tuple ⟨TS, S, TID, t0, t1⟩ of §2.1).
type Instance struct {
	Scenario string
	TID      ThreadID
	Start    Time
	End      Time
}

// Duration returns the recorded execution time of the instance.
func (in Instance) Duration() Duration { return Duration(in.End - in.Start) }

// Stream is a single trace stream: an event sequence plus the interned
// frame and stack tables and the scenario instances recorded during the
// tracing period.
type Stream struct {
	// ID names the stream (for example the originating machine).
	ID string

	frames     []string
	frameIndex map[string]FrameID
	stacks     [][]FrameID
	stackIndex map[string]StackID

	// Events is the time-ordered event sequence.
	Events []Event
	// Instances lists the scenario instances captured in this stream.
	Instances []Instance
	// Threads maps thread IDs to descriptive metadata. Optional.
	Threads map[ThreadID]ThreadInfo
}

// NewStream returns an empty stream with the given ID.
func NewStream(id string) *Stream {
	return &Stream{
		ID:         id,
		frameIndex: make(map[string]FrameID),
		stackIndex: make(map[string]StackID),
		Threads:    make(map[ThreadID]ThreadInfo),
	}
}

// InternFrame returns the FrameID for the frame string "module!function",
// adding it to the frame table if new.
func (s *Stream) InternFrame(frame string) FrameID {
	if s.frameIndex == nil {
		// Streams decoded from the zero-alloc v4 path carry populated
		// tables but no index maps; rebuild before the first new intern so
		// existing IDs stay stable.
		s.frameIndex = make(map[string]FrameID, len(s.frames))
		for i, f := range s.frames {
			s.frameIndex[f] = FrameID(i)
		}
	}
	if id, ok := s.frameIndex[frame]; ok {
		return id
	}
	id := FrameID(len(s.frames))
	s.frames = append(s.frames, frame)
	s.frameIndex[frame] = id
	return id
}

// InternStack returns the StackID for the given frames (index 0 is the
// topmost / innermost frame), adding the stack to the table if new. The
// input slice is copied; callers may reuse it.
func (s *Stream) InternStack(frames []FrameID) StackID {
	if len(frames) == 0 {
		return NoStack
	}
	if s.stackIndex == nil {
		// See InternFrame: rebuild the index for v4-decoded streams.
		s.stackIndex = make(map[string]StackID, len(s.stacks))
		for i, st := range s.stacks {
			s.stackIndex[stackKey(st)] = StackID(i)
		}
	}
	key := stackKey(frames)
	if id, ok := s.stackIndex[key]; ok {
		return id
	}
	id := StackID(len(s.stacks))
	cp := make([]FrameID, len(frames))
	copy(cp, frames)
	s.stacks = append(s.stacks, cp)
	s.stackIndex[key] = id
	return id
}

// InternStackStrings interns a stack given as frame strings, topmost first.
func (s *Stream) InternStackStrings(frames ...string) StackID {
	ids := make([]FrameID, len(frames))
	for i, f := range frames {
		ids[i] = s.InternFrame(f)
	}
	return s.InternStack(ids)
}

func stackKey(frames []FrameID) string {
	var b strings.Builder
	for i, f := range frames {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", f)
	}
	return b.String()
}

// Frame returns the frame string for id, or "" if out of range.
func (s *Stream) Frame(id FrameID) string {
	if id < 0 || int(id) >= len(s.frames) {
		return ""
	}
	return s.frames[id]
}

// NumFrames returns the size of the frame table.
func (s *Stream) NumFrames() int { return len(s.frames) }

// NumStacks returns the size of the stack table.
func (s *Stream) NumStacks() int { return len(s.stacks) }

// Stack returns the frame IDs of stack id, topmost first. The returned
// slice is owned by the stream and must not be modified.
func (s *Stream) Stack(id StackID) []FrameID {
	if id < 0 || int(id) >= len(s.stacks) {
		return nil
	}
	return s.stacks[id]
}

// StackStrings resolves stack id into frame strings, topmost first.
func (s *Stream) StackStrings(id StackID) []string {
	ids := s.Stack(id)
	out := make([]string, len(ids))
	for i, f := range ids {
		out[i] = s.Frame(f)
	}
	return out
}

// AppendEvent appends an event to the stream.
func (s *Stream) AppendEvent(e Event) {
	s.Events = append(s.Events, e)
}

// SetThread records descriptive metadata for a thread.
func (s *Stream) SetThread(tid ThreadID, process, name string) {
	if s.Threads == nil {
		s.Threads = make(map[ThreadID]ThreadInfo)
	}
	s.Threads[tid] = ThreadInfo{Process: process, Name: name}
}

// ThreadName returns the "Process!Name" form for tid, or "T<tid>" when no
// metadata was recorded.
func (s *Stream) ThreadName(tid ThreadID) string {
	if ti, ok := s.Threads[tid]; ok {
		return ti.String()
	}
	return fmt.Sprintf("T%d", tid)
}

// Duration returns the time span covered by the stream's events.
func (s *Stream) Duration() Duration {
	var last Time
	for i := range s.Events {
		last = max(last, s.Events[i].End())
	}
	return Duration(last)
}

// SortEvents orders events by (Time, TID, Type). Generators that emit events
// out of order must call this before handing the stream to analyses.
func (s *Stream) SortEvents() {
	sort.SliceStable(s.Events, func(i, j int) bool {
		a, b := s.Events[i], s.Events[j]
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		if a.TID != b.TID {
			return a.TID < b.TID
		}
		return a.Type < b.Type
	})
}

// Validate checks internal consistency: event types are defined, stack and
// frame references are in range, costs are non-negative, unwait events name
// a target thread, and instances have non-negative spans. It returns the
// first problem found.
func (s *Stream) Validate() error {
	for i, e := range s.Events {
		if !e.Type.Valid() {
			return fmt.Errorf("trace: stream %q event %d: invalid type %d", s.ID, i, e.Type)
		}
		if e.Cost < 0 {
			return fmt.Errorf("trace: stream %q event %d: negative cost %d", s.ID, i, e.Cost)
		}
		if e.Time < 0 {
			return fmt.Errorf("trace: stream %q event %d: negative time %d", s.ID, i, e.Time)
		}
		if e.Stack != NoStack && (e.Stack < 0 || int(e.Stack) >= len(s.stacks)) {
			return fmt.Errorf("trace: stream %q event %d: stack %d out of range", s.ID, i, e.Stack)
		}
		if e.Type == Unwait && e.WTID == NoThread {
			return fmt.Errorf("trace: stream %q event %d: unwait without WTID", s.ID, i)
		}
	}
	for i, st := range s.stacks {
		if len(st) == 0 {
			return fmt.Errorf("trace: stream %q stack %d: empty", s.ID, i)
		}
		for _, f := range st {
			if f < 0 || int(f) >= len(s.frames) {
				return fmt.Errorf("trace: stream %q stack %d: frame %d out of range", s.ID, i, f)
			}
		}
	}
	for i, in := range s.Instances {
		if in.End < in.Start {
			return fmt.Errorf("trace: stream %q instance %d: end %d before start %d", s.ID, i, in.End, in.Start)
		}
		if in.Scenario == "" {
			return fmt.Errorf("trace: stream %q instance %d: empty scenario name", s.ID, i)
		}
	}
	return nil
}

// Module returns the module part of a "module!function" frame string, or
// the whole string when it has no separator.
func Module(frame string) string {
	if i := strings.IndexByte(frame, '!'); i >= 0 {
		return frame[:i]
	}
	return frame
}

// FrameString builds a "module!function" frame string.
func FrameString(module, function string) string { return module + "!" + function }
