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
// file and appends its metadata records to corpus.index.
// This is the continuous-ingestion write path, and every previously
// assigned stream index stays valid because the index is append-only.
//
// Crash safety: new intern records land in corpus.intern first, the
// stream file is fully written and closed second, and the index records
// are appended last. A crash at any point leaves at worst orphan intern
// records or an orphan stream file (overwritten by the next append of
// that index), never an index entry pointing at a missing or partial
// file or a stream file referencing unflushed intern records.
//
// An Appender is not safe for concurrent use, and exactly one Appender
// must own a directory at a time. It holds the lengths it last left
// corpus.index and corpus.intern at, and refuses to append once either
// has changed behind it: its stream count and intern IDs would then
// collide with another writer's.
type Appender struct {
	dir string
	n   int // streams already indexed
	// fresh: the index holds no committed record (missing, empty, or a
	// torn header), so the first Append starts it over with the header.
	// freshIntern: likewise corpus.intern, which nothing committed can
	// reference yet; it clears on the first intern flush, which may land
	// before an Append that then fails.
	fresh, freshIntern bool
	// The byte lengths this appender last left the two append-only files
	// at (0 for a missing file).
	indexLen, internLen int64

	// The corpus intern table (source of truth while this appender owns
	// the directory), the reusable block encoder, and the buffers one
	// append fills: Append's encoded blocks, a stream file's header and
	// the index records.
	intern   *InternTable
	enc      *colfmt.Encoder
	compress bool
	blocks   bytes.Buffer
	head     []byte
	records  []byte
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
		internLen, err := fileLen(filepath.Join(dir, internFile))
		if err != nil {
			return nil, err
		}
		return &Appender{dir: dir, fresh: true, freshIntern: true, intern: NewInternTable(),
			indexLen: int64(len(data)), internLen: internLen}, nil
	}
	metas, err := parseIndex(string(data))
	if err != nil {
		return nil, fmt.Errorf("trace: %s: %w", indexFile, err)
	}
	it, internLen, err := loadInternTable(dir)
	if err != nil {
		return nil, err
	}
	return &Appender{dir: dir, n: len(metas), intern: it, indexLen: int64(len(data)), internLen: internLen}, nil
}

// createAppender starts the corpus in dir over, creating dir if needed:
// corpus.index and then corpus.intern are cut back to their header
// lines. That is the Appender's commit order undone, so a crash between
// the two leaves an index without records over an intern table of
// orphans, never records naming intern entries that are gone. Stream
// files past the new corpus's end stay, unindexed, until an append of
// that index overwrites them.
func createAppender(dir string) (*Appender, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, indexFile), []byte(indexHeader+"\n"), 0o644); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, internFile), []byte(colfmt.InternMagic), 0o644); err != nil {
		return nil, err
	}
	return &Appender{dir: dir, intern: NewInternTable(),
		indexLen: int64(len(indexHeader) + 1), internLen: int64(len(colfmt.InternMagic))}, nil
}

// SetCompression toggles flate compression of event blocks for
// subsequent appends (off by default; decode throughput beats size
// on the analysis path).
func (a *Appender) SetCompression(on bool) { a.compress = on }

// NumStreams returns the number of streams currently indexed.
func (a *Appender) NumStreams() int { return a.n }

// Append validates s, writes it as the corpus's next stream file, and
// appends its metadata records to the index. It returns the stream's
// index in the corpus — the index a DirSource over the same directory
// assigns it. If another writer has grown or cut corpus.index or
// corpus.intern since this appender last wrote them, Append fails
// without touching the directory.
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
// writer behind Append and AppendUpload.
func (a *Appender) append(s *Stream, blocks []byte) (int, error) {
	if err := a.checkSoleWriter(); err != nil {
		return 0, err
	}
	idx := a.n
	name := streamFileName(idx)
	if err := a.writeStreamFile(name, s, blocks); err != nil {
		return 0, err
	}
	m := StreamMeta{
		File:      name,
		ID:        s.ID,
		Events:    len(s.Events),
		Duration:  s.Duration(),
		Instances: s.Instances,
	}
	if err := a.appendIndexRecord(idx, m); err != nil {
		return 0, err
	}
	a.n++
	a.fresh = false
	return idx, nil
}

// checkSoleWriter stats corpus.index and corpus.intern and fails unless
// both are the lengths this appender left them at. Lengths only: an
// in-place edit that keeps them is not seen.
func (a *Appender) checkSoleWriter() error {
	for _, f := range [...]struct {
		name string
		want int64
	}{{indexFile, a.indexLen}, {internFile, a.internLen}} {
		got, err := fileLen(filepath.Join(a.dir, f.name))
		if err != nil {
			return err
		}
		if got != f.want {
			return fmt.Errorf("trace: %s is %d bytes, not the %d this appender left it at: another writer has been at the corpus; re-open it before appending",
				f.name, got, f.want)
		}
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

// writeStreamFile writes s's TSC4 header, interning its frames and
// stacks into the corpus table, flushes any new intern records to
// corpus.intern, and only then writes the stream file — header, then
// blocks — so no stream file on disk ever references an unflushed intern
// record. Close errors surface (a short write otherwise goes unnoticed
// until decode).
func (a *Appender) writeStreamFile(name string, s *Stream, blocks []byte) error {
	a.head = a.intern.appendTables(appendPrefix(a.head[:0], binaryMagicV4, binaryVersionV4, s.ID), s)
	a.head = appendSuffix(a.head, s)
	if err := a.appendInternRecords(); err != nil {
		return err
	}
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

// appendInternRecords lands intern records added since the last flush,
// starting corpus.intern over with its header on a fresh corpus's first
// flush (whatever a crashed first append left there would shift every
// ID this appender assigns). That first flush happens even with no
// record to land: a corpus whose first stream holds no frame still
// needs the file. On failure the flushed cursors are rolled back so the
// records retry on the next append.
func (a *Appender) appendInternRecords() error {
	if !a.freshIntern && a.intern.flushedFrames == len(a.intern.frames) &&
		a.intern.flushedStacks == len(a.intern.stacks) {
		return nil
	}
	ff, fs := a.intern.flushedFrames, a.intern.flushedStacks
	var buf bytes.Buffer
	if a.freshIntern {
		buf.WriteString(colfmt.InternMagic)
	}
	err := a.intern.appendRecordsSince(&buf)
	if err == nil {
		err = appendFile(filepath.Join(a.dir, internFile), a.freshIntern, buf.Bytes(), &a.internLen)
	}
	if err != nil {
		a.intern.flushedFrames, a.intern.flushedStacks = ff, fs
		return fmt.Errorf("trace: appending to %s: %w", internFile, err)
	}
	a.freshIntern = false
	return nil
}

// appendFile appends data to the append-only corpus file at path — or,
// fresh, starts the file over with it — and keeps *size, the length
// this appender left the file at, in step with what lands.
func appendFile(path string, fresh bool, data []byte, size *int64) error {
	flags := os.O_WRONLY | os.O_APPEND
	if fresh {
		flags = os.O_CREATE | os.O_WRONLY | os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return err
	}
	if fresh {
		*size = 0
	}
	n, err := f.Write(data)
	*size += int64(n)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// appendIndexRecord appends one stream's records to the index, writing
// the header first when the corpus is fresh.
func (a *Appender) appendIndexRecord(seq int, m StreamMeta) error {
	a.records = a.records[:0]
	if a.fresh {
		a.records = append(a.records, indexHeader+"\n"...)
	}
	a.records = appendStreamRecord(a.records, seq, m)
	if err := appendFile(filepath.Join(a.dir, indexFile), a.fresh, a.records, &a.indexLen); err != nil {
		return fmt.Errorf("trace: appending to %s: %w", indexFile, err)
	}
	return nil
}
