package trace

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestInternRecordsRoundTrip: frames and stacks written as f and k
// records read back as the same table, IDs and all — over frames with
// quotes, newlines, backslashes, invalid UTF-8 and the empty string.
func TestInternRecordsRoundTrip(t *testing.T) {
	want := NewInternTable()
	for _, f := range []string{"alloc", `lock "q"`, "", "dma\nwait", `back\slash`, "bad \xff utf-8"} {
		want.internFrame(f)
	}
	for _, st := range [][]FrameID{{0}, {0, 1}, {3, 2, 1, 0}, {5, 4}} {
		want.internStack(st)
	}
	// Two batches, so the second's stacks may name the first's frames.
	b := appendInternRecords(nil, want, 0, 0)
	b = appendStreamRecord(b, 0, StreamMeta{ID: "a"})
	half := len(b)
	want.internFrame("late!F")
	want.internStack([]FrameID{6, 0})
	b = appendInternRecords(b, want, 6, 4)
	b = appendStreamRecord(b, 1, StreamMeta{ID: "b"})
	if !bytes.Contains(b[half:], []byte("f \"late!F\"\nk 6 0\ns 1 ")) {
		t.Fatalf("second batch = %q", b[half:])
	}

	got := NewInternTable()
	metas, last, err := parseRecords(string(b), 0, got)
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 2 || last != half {
		t.Fatalf("parsed %d streams, last batch at %d; want 2 at %d", len(metas), last, half)
	}
	if !reflect.DeepEqual(got.frames, want.frames) || !reflect.DeepEqual(got.stacks, want.stacks) {
		t.Fatalf("table read back as %q %v, want %q %v", got.frames, got.stacks, want.frames, want.stacks)
	}
}

// TestInternRecordsValidateFrameIDs: a stack may name only frames
// defined before it — in its own batch, or in the table a reload
// continues.
func TestInternRecordsValidateFrameIDs(t *testing.T) {
	const tail = "f \"only\"\nk 1\ns 0 \"m\" 0 0 0\n"
	it := NewInternTable()
	if _, _, err := parseRecords(tail, 0, it); !errors.Is(err, ErrBadFormat) || !errors.Is(err, ErrUndefinedRef) || !strings.Contains(err.Error(), "stack names frame 1") {
		t.Fatalf("stack naming an undefined frame: err = %v", err)
	}
	if it.NumFrames() != 0 {
		t.Fatalf("rejected records left %d frames in the table", it.NumFrames())
	}
	// With one frame already read, the same records define frame 1.
	it.frames = append(it.frames, "earlier")
	if _, _, err := parseRecords(tail, 0, it); err != nil {
		t.Fatalf("incremental read: %v", err)
	}
	if want := [][]FrameID{{1}}; !reflect.DeepEqual(it.stacks, want) {
		t.Fatalf("stacks = %v, want %v", it.stacks, want)
	}
}

// TestInternRecordsRejectGarbage: malformed f and k records, and intern
// records no stream record closes, fail with ErrBadFormat and leave the
// table as it was.
func TestInternRecordsRejectGarbage(t *testing.T) {
	const stream = "s 0 \"m\" 0 0 0\n"
	for _, tc := range []struct{ name, records string }{
		{"unquoted frame", "f a!b\n" + stream},
		{"trailing frame", "f \"a!b\" x\n" + stream},
		{"bare frame tag", "f\n" + stream},
		{"empty stack", "f \"a!b\"\nk\n" + stream},
		{"bad frame id", "f \"a!b\"\nk x\n" + stream},
		{"negative id", "f \"a!b\"\nk -1\n" + stream},
		{"unknown record", "x \"a!b\"\n" + stream},
		{"torn batch", "f \"a!b\"\nk 0\n"},
		{"torn frame line", "f \"a!b"},
	} {
		name, records := tc.name, tc.records
		it := NewInternTable()
		it.frames = append(it.frames, "kept")
		if _, _, err := parseRecords(records, 0, it); !errors.Is(err, ErrBadFormat) {
			t.Errorf("%s: err = %v, want ErrBadFormat", name, err)
		}
		if it.NumFrames() != 1 || it.NumStacks() != 0 {
			t.Errorf("%s: rejected records left the table at %d frames, %d stacks", name, it.NumFrames(), it.NumStacks())
		}
	}
}

// TestOpenRefusesVersion4Index: a corpus written with corpus.intern and
// file-naming stream records is refused by the reader and the writer
// alike, with the error naming the version found and what to do.
func TestOpenRefusesVersion4Index(t *testing.T) {
	dir := t.TempDir()
	mustWriteFile(t, filepath.Join(dir, indexFile), "TSINDEX 4\ns 0 \"stream-00000.tsc4\" \"m0\" 0 0 0\n")
	_, openErr := OpenDir(dir)
	_, appendErr := OpenAppender(dir)
	for name, err := range map[string]error{"OpenDir": openErr, "OpenAppender": appendErr} {
		if !errors.Is(err, ErrBadFormat) {
			t.Fatalf("%s over a version-4 index: err = %v, want ErrBadFormat", name, err)
		}
		for _, want := range []string{"found index version 4", "supports only index version 5", "regenerate"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: error %q does not mention %q", name, err, want)
			}
		}
	}
}

// TestOpenCallsTornCRLFHeaderTorn: an index holding only a CRLF header
// line torn before its newline is a torn header, not a corpus of some
// other version to regenerate — least of all of the supported one.
func TestOpenCallsTornCRLFHeaderTorn(t *testing.T) {
	dir := t.TempDir()
	mustWriteFile(t, filepath.Join(dir, indexFile), indexHeader+"\r")
	_, err := OpenDir(dir)
	if !errors.Is(err, ErrBadFormat) || !strings.Contains(err.Error(), "torn index header") {
		t.Fatalf("OpenDir over %q: err = %v, want a torn-header ErrBadFormat", indexHeader+"\r", err)
	}
	if found := fmt.Sprintf("found index version %d ", indexVersion); strings.Contains(err.Error(), found) {
		t.Fatalf("OpenDir over %q: error %q names the supported version as the one found", indexHeader+"\r", err)
	}
}

// StreamFileSeq reads back exactly the names streamFileName writes.
func TestStreamFileSeq(t *testing.T) {
	for _, seq := range []int{0, 1, 42, 99999, 123456} {
		if got, ok := StreamFileSeq(streamFileName(seq)); !ok || got != seq {
			t.Fatalf("StreamFileSeq(%q) = %d, %v; want %d, true", streamFileName(seq), got, ok, seq)
		}
	}
	for _, name := range []string{"", "stream-notes.tsc4", "stream-1.tsc4", "stream-+0001.tsc4",
		"stream--0001.tsc4", "stream-00001.tscp", "stream-00001.tsc4.bak", "00001", "x-00001.tsc4"} {
		if seq, ok := StreamFileSeq(name); ok {
			t.Fatalf("StreamFileSeq(%q) = %d, true; the Appender never writes that name", name, seq)
		}
	}
}

// TestAppenderRejectsNegativeStart: an instance starting before 0 is one
// the index parser refuses, so Append and AppendUpload refuse it too,
// before writing anything — the corpus still opens, and the next stream
// takes the refused one's index.
func TestAppenderRejectsNegativeStart(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenAppender(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Append(randomStream(1)); err != nil {
		t.Fatal(err)
	}
	bad := randomStream(2)
	bad.Instances[0].Start = -5
	if _, err := a.Append(bad); !errors.Is(err, ErrBadFormat) || !strings.Contains(err.Error(), "negative start") {
		t.Fatalf("Append of an instance starting at -5: err = %v", err)
	}
	var body bytes.Buffer
	if err := bad.WriteBinary(&body); err != nil {
		t.Fatal(err)
	}
	var u Upload
	if _, err := ReadUpload(&body, &u); err != nil {
		t.Fatal(err)
	}
	if _, err := a.AppendUpload(&u); !errors.Is(err, ErrBadFormat) || !strings.Contains(err.Error(), "negative start") {
		t.Fatalf("AppendUpload of an instance starting at -5: err = %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, streamFileName(1))); !os.IsNotExist(err) {
		t.Fatalf("a refused append wrote its stream file: %v", err)
	}

	if _, err := OpenDir(dir); err != nil {
		t.Fatalf("OpenDir after the refused appends: %v", err)
	}
	if _, err := OpenAppender(dir); err != nil {
		t.Fatalf("OpenAppender after the refused appends: %v", err)
	}
	if idx, err := a.Append(randomStream(3)); idx != 1 || err != nil {
		t.Fatalf("Append after the refused ones = %d, %v; want stream 1", idx, err)
	}
}
