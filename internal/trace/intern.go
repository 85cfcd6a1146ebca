package trace

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"tracescope/internal/trace/colfmt"
)

// internFile is the corpus-level intern container: every distinct
// frame string and every distinct stack in the corpus, stored once.
// Stream files reference these tables by global ID, so decoding a stream
// allocates no strings and no stack storage beyond slice headers.
const internFile = "corpus.intern"

// InternTable is the corpus-wide frame and stack table. Frames are
// "module!function" strings; stacks are frame sequences expressed in
// global frame IDs. IDs are assigned in first-intern order and
// persisted append-only (colfmt intern records), so a table loaded from
// disk reproduces the writer's IDs exactly.
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

	// flushedFrames/flushedStacks count records already persisted, so an
	// Appender can flush only the new tail (appendRecordsSince).
	flushedFrames int
	flushedStacks int
}

// NewInternTable returns an empty table.
func NewInternTable() *InternTable { return &InternTable{} }

// NumFrames returns the number of interned frame strings.
func (t *InternTable) NumFrames() int { return len(t.frames) }

// NumStacks returns the number of interned stacks.
func (t *InternTable) NumStacks() int { return len(t.stacks) }

// Frame returns the frame string for a global frame ID, or "" when out
// of range.
func (t *InternTable) Frame(id FrameID) string {
	if id < 0 || int(id) >= len(t.frames) {
		return ""
	}
	return t.frames[id]
}

// StackFrames returns the global frame IDs of a global stack ID. The
// returned slice is owned by the table and must not be modified.
func (t *InternTable) StackFrames(id StackID) []FrameID {
	if id < 0 || int(id) >= len(t.stacks) {
		return nil
	}
	return t.stacks[id]
}

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
	key := stackKey(frames)
	if id, ok := t.stackIndex[key]; ok {
		return id
	}
	id := StackID(len(t.stacks))
	cp := make([]FrameID, len(frames))
	copy(cp, frames)
	t.stacks = append(t.stacks, cp)
	t.stackIndex[key] = id
	return id
}

// addRecords parses intern records (the file body after the header, or
// an incremental tail of it) and appends them to the table, marking
// them flushed — they came from disk.
func (t *InternTable) addRecords(data []byte) error {
	err := colfmt.ReadInternRecords(data, len(t.frames),
		func(s string) error {
			t.frames = append(t.frames, s)
			if t.frameIndex != nil {
				t.frameIndex[s] = FrameID(len(t.frames) - 1)
			}
			return nil
		},
		func(fs []uint32) error {
			st := make([]FrameID, len(fs))
			for i, f := range fs {
				st[i] = FrameID(f)
			}
			t.stacks = append(t.stacks, st)
			if t.stackIndex != nil {
				t.stackIndex[stackKey(st)] = StackID(len(t.stacks) - 1)
			}
			return nil
		})
	if err != nil {
		return err
	}
	t.flushedFrames = len(t.frames)
	t.flushedStacks = len(t.stacks)
	return nil
}

// loadInternTable reads and parses dir's corpus.intern, returning the
// table and the file's size in bytes.
func loadInternTable(dir string) (*InternTable, int64, error) {
	data, err := os.ReadFile(filepath.Join(dir, internFile))
	if err != nil {
		return nil, 0, fmt.Errorf("trace: corpus intern table: %w", err)
	}
	t, err := readInternTable(data)
	return t, int64(len(data)), err
}

// readInternTable parses a complete corpus.intern file.
func readInternTable(data []byte) (*InternTable, error) {
	if len(data) < len(colfmt.InternMagic) || string(data[:len(colfmt.InternMagic)]) != colfmt.InternMagic {
		return nil, fmt.Errorf("%w: %s: missing %q header", ErrBadFormat, internFile, strings.TrimSpace(colfmt.InternMagic))
	}
	t := NewInternTable()
	if err := t.addRecords(data[len(colfmt.InternMagic):]); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrBadFormat, internFile, err)
	}
	return t, nil
}

// appendRecordsSince writes every record past the flushed cursors to w
// (frames first — stacks reference frames by ID) and advances the
// cursors on success.
func (t *InternTable) appendRecordsSince(w io.Writer) error {
	for _, f := range t.frames[t.flushedFrames:] {
		if err := colfmt.AppendFrame(w, f); err != nil {
			return err
		}
	}
	var scratch []uint32
	for _, st := range t.stacks[t.flushedStacks:] {
		scratch = scratch[:0]
		for _, f := range st {
			scratch = append(scratch, uint32(f))
		}
		if err := colfmt.AppendStack(w, scratch); err != nil {
			return err
		}
	}
	t.flushedFrames = len(t.frames)
	t.flushedStacks = len(t.stacks)
	return nil
}
