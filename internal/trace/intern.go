package trace

import (
	"encoding/binary"
	"slices"
)

// InternTable is the corpus-wide frame and stack table. Frames are
// "module!function" strings; stacks are frame sequences expressed in
// global frame IDs. IDs are assigned in first-intern order and logged
// append-only as corpus.index's f and k records, so a table read back
// from the index reproduces the writer's IDs exactly. Stream files
// reference these tables by global ID, so decoding a stream allocates no
// strings and no stack storage beyond slice headers.
//
// The index maps are built lazily: pure readers (stream decode) never
// need them, writers (the Appender) build them on first intern.
// An InternTable is not safe for concurrent mutation; DirSource only
// mutates its table inside Reload, which callers already serialize.
type InternTable struct {
	frames     []string
	frameIndex map[string]FrameID
	stacks     [][]FrameID // global frame IDs
	stackIndex map[string]StackID

	// A writer's scratch: a stack key, and a stream's frames and one of
	// its stacks in global IDs (appendTables).
	key     []byte
	l2g     []FrameID
	gframes []FrameID
}

// NewInternTable returns an empty table.
func NewInternTable() *InternTable { return &InternTable{} }

// NumFrames returns the number of interned frame strings.
func (t *InternTable) NumFrames() int { return len(t.frames) }

// NumStacks returns the number of interned stacks.
func (t *InternTable) NumStacks() int { return len(t.stacks) }

// internFrame returns the global ID for frame, interning it if new.
func (t *InternTable) internFrame(frame string) FrameID {
	if t.frameIndex == nil {
		t.frameIndex = make(map[string]FrameID, len(t.frames))
		for i, f := range t.frames {
			t.frameIndex[f] = FrameID(i)
		}
	}
	if id, ok := t.frameIndex[frame]; ok {
		return id
	}
	id := FrameID(len(t.frames))
	t.frames = append(t.frames, frame)
	t.frameIndex[frame] = id
	return id
}

// internStack returns the global ID for a stack given in global frame
// IDs, interning it if new. The input slice is copied.
func (t *InternTable) internStack(frames []FrameID) StackID {
	if t.stackIndex == nil {
		t.stackIndex = make(map[string]StackID, len(t.stacks))
		for i, st := range t.stacks {
			t.stackIndex[stackKey(st)] = StackID(i)
		}
	}
	t.key = appendStackKey(t.key[:0], frames)
	if id, ok := t.stackIndex[string(t.key)]; ok {
		return id
	}
	id := StackID(len(t.stacks))
	t.stacks = append(t.stacks, slices.Clone(frames))
	t.stackIndex[string(t.key)] = id
	return id
}

// appendTables appends s's TSC4 frame and stack tables to b, interning
// every frame and stack s holds that t does not: local frame and stack
// i become the global IDs of the tables' i-th entries.
func (t *InternTable) appendTables(b []byte, s *Stream) []byte {
	t.l2g = t.l2g[:0]
	b = binary.AppendUvarint(b, uint64(len(s.frames)))
	for _, f := range s.frames {
		g := t.internFrame(f)
		t.l2g = append(t.l2g, g)
		b = binary.AppendUvarint(b, uint64(g))
	}
	b = binary.AppendUvarint(b, uint64(len(s.stacks)))
	for _, st := range s.stacks {
		t.gframes = t.gframes[:0]
		for _, f := range st {
			t.gframes = append(t.gframes, t.l2g[f])
		}
		b = binary.AppendUvarint(b, uint64(t.internStack(t.gframes)))
	}
	return b
}

// truncate cuts the table back to its first frames frames and stacks
// stacks, dropping the index maps (a writer rebuilds them on its next
// intern).
func (t *InternTable) truncate(frames, stacks int) {
	if frames == len(t.frames) && stacks == len(t.stacks) {
		return
	}
	t.frames, t.stacks = t.frames[:frames], t.stacks[:stacks]
	t.frameIndex, t.stackIndex = nil, nil
}
