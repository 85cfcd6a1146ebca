package trace

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"tracescope/internal/obs"
)

// corpus.index format
//
// A header line "TSINDEX 4" followed, per stream, by
//
//	s <seq> <file> <id> <events> <duration_us> <ninstances>
//	i <scenario> <tid> <start_us> <end_us>        (ninstances lines)
//
// where <file>, <id>, and <scenario> are Go-quoted strings. The index
// records everything instance enumeration, scenario listing, and
// fast/slow threshold classification need, so none of them decode event
// payloads.
//
// The index is append-only: new streams are landed by appending one
// stream file plus its records (Appender), never by rewriting earlier
// entries. <seq> must equal the record's zero-based position, which
// lets Reload verify that contract and detect a truncated or rewritten
// index instead of silently renumbering streams (EventIDs and
// InstanceRefs reference streams by index).
//
// Stream files are TSC4 columnar containers (codec_v4.go) referencing
// the corpus-level corpus.intern frame/stack table, which sits next to
// the index and is itself append-only (Reload reads only its new tail).
//
// This is the only on-disk corpus the package opens or writes. The TSCP
// row encoding (codec.go) is the ingest wire format, never a file.

const (
	indexFile    = "corpus.index"
	indexMagic   = "TSINDEX"
	indexVersion = 4
	// indexHeader is the first line of every corpus.index (the magic and
	// indexVersion), written with a terminating newline.
	indexHeader = indexMagic + " 4"
)

// writeStreamRecord writes one stream record (the "s" line plus its "i"
// instance lines) to w.
func writeStreamRecord(w io.Writer, seq int, m StreamMeta) error {
	if _, err := fmt.Fprintf(w, "s %d %s %s %d %d %d\n",
		seq, strconv.Quote(m.File), strconv.Quote(m.ID),
		m.Events, int64(m.Duration), len(m.Instances)); err != nil {
		return err
	}
	for _, in := range m.Instances {
		if _, err := fmt.Fprintf(w, "i %s %d %d %d\n",
			strconv.Quote(in.Scenario), in.TID, int64(in.Start), int64(in.End)); err != nil {
			return err
		}
	}
	return nil
}

// parseIndex parses corpus.index contents and returns the per-stream
// metadata. Entries are validated: duplicate or path-escaping file names
// (absolute, or containing "." / ".." / empty elements) are rejected
// before any file is opened, and malformed input fails with ErrBadFormat
// rather than panicking or over-allocating.
func parseIndex(data string) ([]StreamMeta, error) {
	body, err := indexBody(data)
	if err != nil {
		return nil, err
	}
	metas, _, err := parseRecords(body, 0, make(map[string]bool))
	return metas, err
}

// indexBody checks the header line and returns what follows it.
func indexBody(data string) (string, error) {
	header, body, terminated := strings.Cut(data, "\n")
	if !terminated || strings.TrimSuffix(header, "\r") != indexHeader {
		// Name both the found and the supported version so an operator
		// pointing this binary at another build's corpus sees what to
		// regenerate instead of a bare mismatch.
		return "", fmt.Errorf(
			"%w: found %s but this build supports only index version %d; "+
				"regenerate the corpus with a matching tracegen",
			ErrBadFormat, describeIndexHeader(data), indexVersion)
	}
	return body, nil
}

// parseRecords parses data as whole stream records: the one record
// parser, behind OpenDir (the file after its header) and Reload (the
// tail past the records it knows). Sequence numbers must continue from
// base, and file names must be new against seen, which holds the names
// of the records before base and gains the ones parsed here. Every line
// must end in a newline: an unterminated one is an append torn inside
// it, and its cut-short numbers could still parse. last is the offset in
// data of the final record. On error seen is left as it was.
func parseRecords(data string, base int, seen map[string]bool) (metas []StreamMeta, last int, err error) {
	defer func() {
		if err != nil {
			for _, m := range metas {
				delete(seen, m.File)
			}
			metas = nil
		}
	}()
	bad := func(format string, args ...any) ([]StreamMeta, int, error) {
		return metas, 0, fmt.Errorf("%w: index record %d: %s", ErrBadFormat, base+len(metas), fmt.Sprintf(format, args...))
	}
	rest := data
	// next cuts one terminated line off rest.
	next := func() (string, bool) {
		line, after, ok := strings.Cut(rest, "\n")
		if ok {
			rest = after
		}
		return strings.TrimSuffix(line, "\r"), ok
	}
	for {
		start := len(data) - len(rest)
		line, ok := next()
		if !ok {
			break
		}
		if line == "" {
			continue
		}
		if !strings.HasPrefix(line, "s ") {
			return bad("expected stream record, got %q", line)
		}
		if base+len(metas) >= maxTableLen {
			return bad("stream count too large")
		}
		m, ninst, err := parseStreamRecord(line[2:], base+len(metas))
		if err != nil {
			return bad("%v", err)
		}
		m.Instances = make([]Instance, 0, prealloc(ninst))
		for j := 0; j < ninst; j++ {
			line, ok := next()
			if !ok {
				return bad("truncated instance list for %s", m.File)
			}
			if !strings.HasPrefix(line, "i ") {
				return bad("expected instance record, got %q", line)
			}
			in, err := parseInstanceRecord(line[2:])
			if err != nil {
				return bad("instance %d: %v", j, err)
			}
			m.Instances = append(m.Instances, in)
		}
		if err := checkIndexFile(m.File, seen); err != nil {
			return metas, 0, err
		}
		metas, last = append(metas, m), start
	}
	if rest != "" {
		return bad("unterminated line %q (torn append?)", rest)
	}
	return metas, last, nil
}

// noCommittedRecords reports whether data is empty or a strict prefix of
// the header line: what a crash inside the first append's header write
// leaves behind.
func noCommittedRecords(data string) bool {
	return strings.HasPrefix(indexHeader, data)
}

// describeIndexHeader says, for parseIndex's rejection, what data holds
// in place of the header line.
func describeIndexHeader(data string) string {
	if noCommittedRecords(data) {
		return "an empty or torn index header"
	}
	first, _, _ := strings.Cut(data, "\n")
	first = strings.TrimSuffix(first, "\r")
	if v, ok := strings.CutPrefix(first, indexMagic+" "); ok {
		if _, err := strconv.Atoi(v); err == nil {
			return "index version " + v
		}
	}
	return fmt.Sprintf("a headerless (version 1) or unrecognised index starting %q", first)
}

// parseStreamRecord parses the fields of one "s" line (after the tag).
// The leading sequence number must equal seq, the record's zero-based
// position in the index.
func parseStreamRecord(s string, seq int) (StreamMeta, int, error) {
	var m StreamMeta
	field, s, _ := strings.Cut(s, " ")
	got, err := strconv.Atoi(field)
	if err != nil {
		return m, 0, fmt.Errorf("bad sequence number %q", field)
	}
	if got != seq {
		return m, 0, fmt.Errorf("sequence number %d at position %d (index truncated or rewritten?)", got, seq)
	}
	if m.File, s, err = cutQuoted(s); err != nil {
		return m, 0, fmt.Errorf("stream file: %v", err)
	}
	if m.ID, s, err = cutQuoted(s); err != nil {
		return m, 0, fmt.Errorf("stream id: %v", err)
	}
	fields := strings.Fields(s)
	if len(fields) != 3 {
		return m, 0, fmt.Errorf("want 3 numeric fields, got %d", len(fields))
	}
	events, err := strconv.Atoi(fields[0])
	if err != nil || events < 0 || events > maxTableLen {
		return m, 0, fmt.Errorf("bad event count %q", fields[0])
	}
	dur, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil || dur < 0 {
		return m, 0, fmt.Errorf("bad duration %q", fields[1])
	}
	ninst, err := strconv.Atoi(fields[2])
	if err != nil || ninst < 0 || ninst > maxTableLen {
		return m, 0, fmt.Errorf("bad instance count %q", fields[2])
	}
	m.Events = events
	m.Duration = Duration(dur)
	return m, ninst, nil
}

// parseInstanceRecord parses the fields of one "i" line (after the tag).
func parseInstanceRecord(s string) (Instance, error) {
	var in Instance
	var err error
	if in.Scenario, s, err = cutQuoted(s); err != nil {
		return in, fmt.Errorf("instance scenario: %v", err)
	}
	if in.Scenario == "" {
		return in, fmt.Errorf("empty scenario name")
	}
	fields := strings.Fields(s)
	if len(fields) != 3 {
		return in, fmt.Errorf("want 3 numeric fields, got %d", len(fields))
	}
	tid, err := strconv.ParseInt(fields[0], 10, 32)
	if err != nil {
		return in, fmt.Errorf("bad tid %q", fields[0])
	}
	start, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil || start < 0 {
		return in, fmt.Errorf("bad start %q", fields[1])
	}
	end, err := strconv.ParseInt(fields[2], 10, 64)
	if err != nil || end < start {
		return in, fmt.Errorf("bad end %q", fields[2])
	}
	in.TID = ThreadID(tid)
	in.Start = Time(start)
	in.End = Time(end)
	return in, nil
}

// cutQuoted splits a Go-quoted string off the front of s, returning its
// unquoted value and the rest (with one separating space consumed).
func cutQuoted(s string) (string, string, error) {
	q, err := strconv.QuotedPrefix(s)
	if err != nil {
		return "", "", fmt.Errorf("bad quoted string in %q", s)
	}
	v, err := strconv.Unquote(q)
	if err != nil {
		return "", "", fmt.Errorf("bad quoted string %q", q)
	}
	return v, strings.TrimPrefix(s[len(q):], " "), nil
}

// checkIndexFile validates one index file entry: non-empty, relative,
// confined to the corpus directory (no "." / ".." / empty path
// elements), and not a duplicate of an earlier entry.
func checkIndexFile(name string, seen map[string]bool) error {
	if name == "" {
		return fmt.Errorf("%w: index: empty file entry", ErrBadFormat)
	}
	norm := strings.ReplaceAll(name, `\`, "/")
	if filepath.IsAbs(name) || strings.HasPrefix(norm, "/") ||
		(len(name) >= 2 && name[1] == ':') {
		return fmt.Errorf("%w: index: absolute file entry %q", ErrBadFormat, name)
	}
	for _, part := range strings.Split(norm, "/") {
		if part == "" || part == "." || part == ".." {
			return fmt.Errorf("%w: index: path-escaping file entry %q", ErrBadFormat, name)
		}
	}
	if seen[name] {
		return fmt.Errorf("%w: index: duplicate file entry %q", ErrBadFormat, name)
	}
	seen[name] = true
	return nil
}

// DirSource is a lazy corpus over a directory written by WriteDir:
// stream and instance metadata come from the corpus.index, and Stream
// decodes one file on demand — into memory of its own, or with
// StreamInto into the caller's. It holds no decoded streams and no
// decode buffers itself — wrap it in a CachedSource to bound repeated
// decoding.
//
// DirSource is safe for concurrent use: its metadata is immutable after
// OpenDir and Stream only reads files. The one exception is Reload,
// which appends metadata for newly landed streams; callers must
// serialize Reload against all other methods (the tracescoped daemon
// holds its state lock across it).
type DirSource struct {
	dir   string
	metas []StreamMeta
	rec   obs.Recorder

	// What Reload needs to read only the index's new tail: the offset
	// just past the last record parsed, that record's bytes (the guard a
	// reload re-reads and compares), and every known stream file name.
	indexSize  int64
	indexGuard string
	seen       map[string]bool

	// The corpus intern table and the byte offset up to which
	// corpus.intern has been loaded (Reload reads only the new tail).
	intern     *InternTable
	internSize int64

	numInstances int
	numEvents    int
	totalDur     Duration
}

// OpenDir opens a corpus directory lazily: it reads only the index file
// and the corpus.intern frame/stack container.
func OpenDir(dir string) (*DirSource, error) {
	data, err := os.ReadFile(filepath.Join(dir, indexFile))
	if err != nil {
		return nil, err
	}
	d := &DirSource{dir: dir, rec: obs.Nop, seen: make(map[string]bool)}
	body, err := indexBody(string(data))
	if err == nil {
		// Until a record lands the header line stands guard.
		d.indexGuard = string(data[:len(data)-len(body)])
		d.indexSize = int64(len(d.indexGuard))
		_, err = d.adopt(body, int64(len(data)))
	}
	if err != nil {
		return nil, fmt.Errorf("trace: %s: %w", indexFile, err)
	}
	if d.intern, d.internSize, err = loadInternTable(dir); err != nil {
		return nil, err
	}
	return d, nil
}

// adopt parses tail — the index bytes past the last known record, ending
// at offset size — and appends its records to the source, returning how
// many. On error no field changes.
func (d *DirSource) adopt(tail string, size int64) (int, error) {
	fresh, last, err := parseRecords(tail, len(d.metas), d.seen)
	if err != nil || len(fresh) == 0 {
		return 0, err
	}
	for _, m := range fresh {
		d.numInstances += len(m.Instances)
		d.numEvents += m.Events
		d.totalDur += m.Duration
	}
	d.metas = append(d.metas, fresh...)
	d.indexSize, d.indexGuard = size, tail[last:]
	return len(fresh), nil
}

// Reload appends metadata for the streams whose index records landed
// since the source was opened (or last reloaded), at a cost set by those
// records alone. It reads the index from the start of the last record it
// knows, requires that record's bytes unchanged, and parses what follows
// as whole records that continue the sequence and name new files. A
// shrunk or shifted index, or a torn or malformed tail, fails with
// ErrBadFormat and changes nothing, so the same source can reload once
// the record is complete.
//
// Reload does not see an edit before its last record that keeps every
// length: the directory's single owner wrote and validated those bytes
// itself. Where another writer can exist, call VerifyPrefix first.
//
// Reload returns the number of newly discovered streams. It mutates the
// source's metadata, so callers must serialize it against every other
// method; see the type comment.
func (d *DirSource) Reload() (int, error) {
	// The intern table is append-only too; load its new tail before the
	// index so every stream the reloaded index names can resolve its
	// global IDs (the Appender lands intern records before index records).
	if err := d.reloadIntern(); err != nil {
		return 0, err
	}
	data, size, err := readTail(filepath.Join(d.dir, indexFile), d.indexSize-int64(len(d.indexGuard)))
	if err != nil {
		return 0, err
	}
	// A file shorter than indexSize cannot hold the whole guard either.
	tail, intact := strings.CutPrefix(string(data), d.indexGuard)
	if !intact {
		return 0, fmt.Errorf("trace: %s: %w: index shrank below %d bytes or its last known record changed (append-only contract broken)",
			indexFile, ErrBadFormat, d.indexSize)
	}
	n, err := d.adopt(tail, size)
	if err != nil {
		return 0, fmt.Errorf("trace: %s: %w", indexFile, err)
	}
	d.rec.Add("trace_index_reloads_total", 1)
	d.rec.Add("trace_index_streams_discovered_total", int64(n))
	return n, nil
}

// VerifyPrefix re-reads the whole index and checks that every record the
// source knows is still there, unchanged and in order: the O(corpus) half
// of the append-only contract (a rewritten index would silently renumber
// streams, and EventIDs and InstanceRefs reference streams by index),
// for callers that share the directory with another writer.
func (d *DirSource) VerifyPrefix() error {
	data, err := os.ReadFile(filepath.Join(d.dir, indexFile))
	if err != nil {
		return err
	}
	metas, err := parseIndex(string(data))
	if err != nil {
		return fmt.Errorf("trace: %s: %w", indexFile, err)
	}
	if len(metas) < len(d.metas) {
		return fmt.Errorf("trace: %s: %w: index shrank from %d to %d streams (append-only contract broken)",
			indexFile, ErrBadFormat, len(d.metas), len(metas))
	}
	for i, old := range d.metas {
		if metas[i].File != old.File || metas[i].ID != old.ID || metas[i].Events != old.Events ||
			metas[i].Duration != old.Duration || !slices.Equal(metas[i].Instances, old.Instances) {
			return fmt.Errorf("trace: %s: %w: stream record %d changed (append-only contract broken)",
				indexFile, ErrBadFormat, i)
		}
	}
	return nil
}

// Dir returns the backing corpus directory.
func (d *DirSource) Dir() string { return d.dir }

// SetRecorder routes the source's observability events — a "trace_decode"
// span per on-demand stream decode plus decoded/error counters — to r.
// Call before concurrent use; nil restores the no-op recorder.
func (d *DirSource) SetRecorder(r obs.Recorder) { d.rec = obs.OrNop(r) }

// NumStreams returns the number of streams.
func (d *DirSource) NumStreams() int { return len(d.metas) }

// NumInstances returns the total number of scenario instances recorded.
func (d *DirSource) NumInstances() int { return d.numInstances }

// NumEvents returns the total number of events across all streams.
func (d *DirSource) NumEvents() int { return d.numEvents }

// TotalDuration sums the time spans of all streams.
func (d *DirSource) TotalDuration() Duration { return d.totalDur }

// Scenarios returns the sorted scenario names with instance counts,
// computed from index metadata alone.
func (d *DirSource) Scenarios() []ScenarioCount { return scenarioCounts(d.metas) }

// InstancesOf returns references to every instance of the named scenario
// ("" selects all), computed from index metadata alone.
func (d *DirSource) InstancesOf(scenario string) []InstanceRef {
	return instanceRefs(d.metas, scenario)
}

// InstanceMeta resolves a reference from index metadata alone.
func (d *DirSource) InstanceMeta(ref InstanceRef) Instance {
	return d.metas[ref.Stream].Instances[ref.Instance]
}

// StreamMeta returns stream i's index metadata. The Instances slice is
// shared; treat as read-only.
func (d *DirSource) StreamMeta(i int) StreamMeta { return d.metas[i] }

// Stream decodes stream i from its backing file into memory the stream
// owns. Every call decodes afresh; wrap the source in a CachedSource to
// bound re-decoding.
func (d *DirSource) Stream(i int) (*Stream, error) {
	return d.StreamInto(i, new(Scratch))
}

// StreamInto decodes stream i from its backing file into sc: the stream
// and everything reachable from it is valid until sc's next decode (see
// Scratch). A caller that sweeps the corpus with one Scratch decodes
// every stream into the same buffers.
func (d *DirSource) StreamInto(i int, sc *Scratch) (*Stream, error) {
	if i < 0 || i >= len(d.metas) {
		return nil, fmt.Errorf("trace: stream %d out of range (%d streams)", i, len(d.metas))
	}
	sp := d.rec.Start("trace_decode")
	s, err := d.decode(i, sc)
	sp.End()
	if err != nil {
		d.rec.Add("trace_decode_errors_total", 1)
		return nil, err
	}
	d.rec.Add("trace_streams_decoded_total", 1)
	return s, nil
}

// decode reads stream i's columnar file into sc and decodes it there.
func (d *DirSource) decode(i int, sc *Scratch) (*Stream, error) {
	name := d.metas[i].File
	s, err := d.readFileV4(name, sc)
	if err != nil {
		return nil, fmt.Errorf("trace: reading %s: %w", name, err)
	}
	// A stale index whose instance table disagrees with the stream would
	// let InstanceRefs index out of range downstream; fail loudly here.
	if len(s.Instances) != len(d.metas[i].Instances) {
		return nil, fmt.Errorf("%w: %s: stream has %d instances but index records %d",
			ErrBadFormat, name, len(s.Instances), len(d.metas[i].Instances))
	}
	return s, nil
}

// readFileV4 reads one stream file into b.raw and decodes it in place.
func (d *DirSource) readFileV4(name string, b *Scratch) (*Stream, error) {
	f, err := os.Open(filepath.Join(d.dir, filepath.FromSlash(name)))
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err == nil {
		size := int(st.Size())
		if cap(b.raw) < size {
			b.raw = make([]byte, size)
		}
		b.raw = b.raw[:size]
		_, err = io.ReadFull(f, b.raw)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return readBinaryV4(b.raw, d.intern, b)
}

// reloadIntern reads the corpus.intern records appended since the last
// load. A shrunken file breaks the append-only contract.
func (d *DirSource) reloadIntern() error {
	tail, size, err := readTail(filepath.Join(d.dir, internFile), d.internSize)
	if err != nil {
		return err
	}
	if size < d.internSize {
		return fmt.Errorf("trace: %s: %w: intern table shrank from %d to %d bytes (append-only contract broken)",
			internFile, ErrBadFormat, d.internSize, size)
	}
	if err := d.intern.addRecords(tail); err != nil {
		return fmt.Errorf("%w: %s: %v", ErrBadFormat, internFile, err)
	}
	d.internSize = size
	return nil
}

// readTail reads the file at path from offset from to its end and
// returns those bytes with the file's size; a file no longer than from
// yields none.
func readTail(path string, from int64) (tail []byte, size int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	st, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	if size = st.Size(); size > from {
		tail = make([]byte, size-from)
		_, err = f.ReadAt(tail, from)
	}
	return tail, size, err
}

// Materialize decodes every stream into an in-memory Corpus (the eager
// ReadDir behaviour), for consumers that need resident streams.
func (d *DirSource) Materialize() (*Corpus, error) {
	c := &Corpus{}
	for i := range d.metas {
		s, err := d.Stream(i)
		if err != nil {
			return nil, err
		}
		c.Add(s)
	}
	return c, nil
}
