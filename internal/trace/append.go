package trace

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"tracescope/internal/trace/colfmt"
)

// Appender grows a corpus directory one stream at a time without ever
// rewriting what is already there: each Append writes one new stream
// file and appends one batch — the stream's new intern records, then its
// stream and instance records — to corpus.index. This is the
// continuous-ingestion write path, and every previously assigned stream
// index stays valid because the index is append-only.
//
// Crash safety: the stream file is fully written and closed first, and
// the batch is appended second, in one write. A crash leaves at worst an
// orphan stream file (overwritten by the next append of that index) or a
// torn final batch, whose intern records count for nothing until the
// batch is whole; never an index entry pointing at a missing or partial
// file.
//
// An Appender is not safe for concurrent use, and exactly one Appender
// must own a directory at a time. It holds the length it last left
// corpus.index at, and refuses to append once that has changed behind
// it: its stream count and intern IDs would then collide with another
// writer's.
type Appender struct {
	dir string
	n   int // streams already indexed
	// fresh: the index holds no committed record (missing, empty, or a
	// torn header), so the first Append starts it over with the header.
	fresh bool
	// indexLen is the byte length this appender last left corpus.index
	// at (0 for a missing file).
	indexLen int64

	// The corpus intern table (what the index holds, while this appender
	// owns the directory), the reusable block encoder, and the buffers
	// one append fills: Append's encoded blocks, a stream file's header
	// and the batch.
	intern   *InternTable
	enc      *colfmt.Encoder
	compress bool
	blocks   bytes.Buffer
	head     []byte
	batch    []byte
}

// OpenAppender opens dir for append-only corpus growth, creating the
// directory if needed. An existing corpus continues from its current
// stream count. A missing index starts an empty corpus, and so does one
// that is empty or a strict prefix of the header line: a crash inside
// the first append's header write committed nothing, and the daemon must
// be able to restart over it.
func OpenAppender(dir string) (*Appender, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(dir, indexFile))
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	if noCommittedRecords(string(data)) {
		return &Appender{dir: dir, fresh: true, intern: NewInternTable(), indexLen: int64(len(data))}, nil
	}
	metas, it, err := parseIndex(string(data))
	if err != nil {
		return nil, fmt.Errorf("trace: %s: %w", indexFile, err)
	}
	return &Appender{dir: dir, n: len(metas), intern: it, indexLen: int64(len(data))}, nil
}

// createAppender starts the corpus in dir over, creating dir if needed:
// corpus.index is cut back to its header line. Stream files past the new
// corpus's end stay, unindexed, until an append of that index overwrites
// them.
func createAppender(dir string) (*Appender, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, indexFile), []byte(indexHeader+"\n"), 0o644); err != nil {
		return nil, err
	}
	return &Appender{dir: dir, intern: NewInternTable(), indexLen: int64(len(indexHeader) + 1)}, nil
}

// SetCompression toggles flate compression of event blocks for
// subsequent appends (off by default; decode throughput beats size
// on the analysis path).
func (a *Appender) SetCompression(on bool) { a.compress = on }

// NumStreams returns the number of streams currently indexed.
func (a *Appender) NumStreams() int { return a.n }

// Append validates s, writes it as the corpus's next stream file, and
// appends its batch to the index. It returns the stream's index in the
// corpus — the index a DirSource over the same directory assigns it. If
// another writer has grown or cut corpus.index since this appender last
// wrote it, Append fails without touching the directory.
func (a *Appender) Append(s *Stream) (int, error) {
	if err := s.Validate(); err != nil {
		return 0, fmt.Errorf("trace: appending stream: %w", err)
	}
	if a.enc == nil {
		a.enc = colfmt.NewEncoder(eventColumns)
	}
	a.blocks.Reset()
	if err := writeEventBlocks(&a.blocks, s.Events, a.enc, a.compress); err != nil {
		return 0, fmt.Errorf("trace: encoding stream %q: %w", s.ID, err)
	}
	return a.append(s, a.blocks.Bytes())
}

// AppendUpload appends the stream u holds as Append does, storing the
// event blocks it was decoded from as they arrived: the blocks and the
// stream's events are one, so nothing is encoded again. The stream file
// is Append's byte for byte when the body came from WriteBinary; other
// block layouts (shorter blocks, compressed ones) are kept as sent and
// decode to the same events. The compression setting does not apply.
func (a *Appender) AppendUpload(u *Upload) (int, error) {
	if u.stream == nil {
		return 0, fmt.Errorf("trace: appending an upload that holds no decoded stream")
	}
	return a.append(u.stream, u.blocks)
}

// append lands one stream whose events blocks encodes: the one file
// writer behind Append and AppendUpload. The stream's index records are
// checked first, by the rules the parser reads them back with. If the
// append fails after interning, the intern table is cut back to what
// the index holds.
func (a *Appender) append(s *Stream, blocks []byte) (int, error) {
	m := StreamMeta{
		File:      streamFileName(a.n),
		ID:        s.ID,
		Events:    len(s.Events),
		Duration:  s.Duration(),
		Instances: s.Instances,
	}
	if err := checkMeta(m); err != nil {
		return 0, fmt.Errorf("%w: appending stream %q: %v", ErrBadFormat, s.ID, err)
	}
	if err := a.checkSoleWriter(); err != nil {
		return 0, err
	}
	frames, stacks := a.intern.NumFrames(), a.intern.NumStacks()
	a.head = a.intern.appendTables(appendPrefix(a.head[:0], binaryMagicV4, binaryVersionV4, s.ID), s)
	a.head = appendSuffix(a.head, s)
	err := a.writeStreamFile(m.File, blocks)
	if err == nil {
		err = a.appendBatch(m, frames, stacks)
	}
	if err != nil {
		a.intern.truncate(frames, stacks)
		return 0, err
	}
	a.n++
	a.fresh = false
	return a.n - 1, nil
}

// checkSoleWriter stats corpus.index and fails unless it is the length
// this appender left it at. Length only: an in-place edit that keeps it
// is not seen.
func (a *Appender) checkSoleWriter() error {
	got, err := fileLen(filepath.Join(a.dir, indexFile))
	if err != nil {
		return err
	}
	if got != a.indexLen {
		return fmt.Errorf("trace: %s is %d bytes, not the %d this appender left it at: another writer has been at the corpus; re-open it before appending",
			indexFile, got, a.indexLen)
	}
	return nil
}

// fileLen returns the length of the file at path, 0 if there is none.
func fileLen(path string) (int64, error) {
	st, err := os.Stat(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// writeStreamFile writes a.head and then blocks as the stream file name.
// Close errors surface (a short write otherwise goes unnoticed until
// decode).
func (a *Appender) writeStreamFile(name string, blocks []byte) error {
	f, err := os.Create(filepath.Join(a.dir, name))
	if err != nil {
		return err
	}
	_, err = f.Write(a.head)
	if err == nil {
		_, err = f.Write(blocks)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace: writing %s: %w", name, err)
	}
	return nil
}

// appendBatch appends m's batch to the index in one write: the intern
// records from frames and stacks on, then m's records. On a fresh corpus
// it starts the file over with the header line first.
func (a *Appender) appendBatch(m StreamMeta, frames, stacks int) error {
	a.batch = a.batch[:0]
	flags := os.O_WRONLY | os.O_APPEND
	if a.fresh {
		a.batch = append(a.batch, indexHeader+"\n"...)
		flags = os.O_CREATE | os.O_WRONLY | os.O_TRUNC
	}
	a.batch = appendInternRecords(a.batch, a.intern, frames, stacks)
	a.batch = appendStreamRecord(a.batch, a.n, m)
	f, err := os.OpenFile(filepath.Join(a.dir, indexFile), flags, 0o644)
	if err != nil {
		return fmt.Errorf("trace: appending to %s: %w", indexFile, err)
	}
	if a.fresh {
		a.indexLen = 0
	}
	n, err := f.Write(a.batch)
	a.indexLen += int64(n)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace: appending to %s: %w", indexFile, err)
	}
	return nil
}
