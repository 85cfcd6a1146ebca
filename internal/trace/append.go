package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"tracescope/internal/trace/colfmt"
)

// Appender grows a corpus directory one stream at a time without ever
// rewriting what is already there: each Append writes one new stream
// file and appends its metadata records to corpus.index.
// This is the continuous-ingestion write path — a DirSource opened over
// the same directory picks the new streams up with Reload, reading only
// the index's new tail, and every previously assigned stream index stays
// valid because the index is append-only.
//
// Crash safety: new intern records land in corpus.intern first, the
// stream file is fully written and closed second, and the index records
// are appended last. A crash at any point leaves at worst orphan intern
// records or an orphan stream file (overwritten by the next append of
// that index), never an index entry pointing at a missing or partial
// file or a stream file referencing unflushed intern records.
//
// An Appender is not safe for concurrent use, and exactly one Appender
// must own a directory at a time; the ingest server serializes both.
type Appender struct {
	dir string
	n   int // streams already indexed
	// fresh: the index holds no committed record (missing, empty, or a
	// torn header), so the first Append starts it over with the header.
	// freshIntern: likewise corpus.intern, which nothing committed can
	// reference yet; it clears on the first intern flush, which may land
	// before an Append that then fails.
	fresh, freshIntern bool

	// The corpus intern table (source of truth while this appender owns
	// the directory) and the reusable block encoder.
	intern   *InternTable
	enc      *colfmt.Encoder
	compress bool
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
		return &Appender{dir: dir, fresh: true, freshIntern: true, intern: NewInternTable()}, nil
	}
	metas, err := parseIndex(string(data))
	if err != nil {
		return nil, fmt.Errorf("trace: %s: %w", indexFile, err)
	}
	it, _, err := loadInternTable(dir)
	if err != nil {
		return nil, err
	}
	return &Appender{dir: dir, n: len(metas), intern: it}, nil
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
	return &Appender{dir: dir, intern: NewInternTable()}, nil
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
// assigns it after Reload.
func (a *Appender) Append(s *Stream) (int, error) {
	if err := s.Validate(); err != nil {
		return 0, fmt.Errorf("trace: appending stream: %w", err)
	}
	idx := a.n
	name := streamFileName(idx)
	if err := a.writeStreamFile(name, s); err != nil {
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

// writeStreamFile encodes s against the corpus intern table, flushes
// any new intern records to corpus.intern, and only then writes the
// stream file — so no stream file on disk ever references an unflushed
// intern record. Close errors surface (a short write otherwise goes
// unnoticed until decode).
func (a *Appender) writeStreamFile(name string, s *Stream) error {
	if a.enc == nil {
		a.enc = colfmt.NewEncoder(eventColumns)
	}
	var buf bytes.Buffer
	if err := s.writeBinaryV4(&buf, a.intern, a.enc, a.compress); err != nil {
		return fmt.Errorf("trace: encoding %s: %w", name, err)
	}
	if err := a.appendInternRecords(); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(a.dir, name))
	if err != nil {
		return err
	}
	_, err = f.Write(buf.Bytes())
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
// ID this appender assigns). On failure the flushed cursors are rolled
// back so the records retry on the next append.
func (a *Appender) appendInternRecords() error {
	if a.intern.flushedFrames == len(a.intern.frames) &&
		a.intern.flushedStacks == len(a.intern.stacks) {
		return nil
	}
	f, err := os.OpenFile(filepath.Join(a.dir, internFile), appendFlags(a.freshIntern), 0o644)
	if err != nil {
		return err
	}
	ff, fs := a.intern.flushedFrames, a.intern.flushedStacks
	bw := bufio.NewWriter(f)
	if a.freshIntern {
		bw.WriteString(colfmt.InternMagic) //nolint:errcheck // bufio defers errors to Flush
	}
	err = a.intern.appendRecordsSince(bw)
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		a.intern.flushedFrames, a.intern.flushedStacks = ff, fs
		return fmt.Errorf("trace: appending to %s: %w", internFile, err)
	}
	a.freshIntern = false
	return nil
}

// appendFlags opens an append-only corpus file for its next record;
// fresh starts the file over instead.
func appendFlags(fresh bool) int {
	if fresh {
		return os.O_CREATE | os.O_WRONLY | os.O_TRUNC
	}
	return os.O_WRONLY | os.O_APPEND
}

// appendIndexRecord appends one stream's records to the index, writing
// the header first when the corpus is fresh.
func (a *Appender) appendIndexRecord(seq int, m StreamMeta) error {
	f, err := os.OpenFile(filepath.Join(a.dir, indexFile), appendFlags(a.fresh), 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if a.fresh {
		fmt.Fprintln(bw, indexHeader)
	}
	err = writeStreamRecord(bw, seq, m)
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace: appending to %s: %w", indexFile, err)
	}
	return nil
}
