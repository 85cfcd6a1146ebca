package trace

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"tracescope/internal/obs"
)

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
// serialize Reload against all other methods.
type DirSource struct {
	dir   string
	metas []StreamMeta
	rec   obs.Recorder

	// What Reload needs to read only the index's new tail: the offset
	// just past the last batch parsed and that batch's bytes (the guard
	// a reload re-reads and compares).
	indexSize  int64
	indexGuard string

	// The corpus intern table the index's f and k records define.
	intern *InternTable

	numInstances int
	numEvents    int
	totalDur     Duration
}

// OpenDir opens a corpus directory lazily: it reads only the index file.
func OpenDir(dir string) (*DirSource, error) {
	data, err := os.ReadFile(filepath.Join(dir, indexFile))
	if err != nil {
		return nil, err
	}
	d := &DirSource{dir: dir, rec: obs.Nop, intern: NewInternTable()}
	body, err := indexBody(string(data))
	if err == nil {
		// Until a batch lands the header line stands guard.
		d.indexGuard = string(data[:len(data)-len(body)])
		d.indexSize = int64(len(d.indexGuard))
		_, err = d.adopt(body, int64(len(data)))
	}
	if err != nil {
		return nil, fmt.Errorf("trace: %s: %w", indexFile, err)
	}
	return d, nil
}

// adopt parses tail — the index bytes past the last known batch, ending
// at offset size — and appends its streams and intern records to the
// source, returning how many streams. On error no field changes.
func (d *DirSource) adopt(tail string, size int64) (int, error) {
	fresh, last, err := parseRecords(tail, len(d.metas), d.intern)
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

// Reload appends metadata for the streams whose batches landed since the
// source was opened (or last reloaded), at a cost set by those batches
// alone. It reads the index from the start of the last batch it knows,
// requires that batch's bytes unchanged, and parses what follows as
// whole batches that continue the sequence. A shrunk or shifted index,
// or a torn or malformed tail, fails with ErrBadFormat and changes
// nothing, so the same source can reload once the batch is complete.
//
// Reload does not see an edit before its last batch that keeps every
// length: the directory's single owner wrote and validated those bytes
// itself.
//
// Reload returns the number of newly discovered streams. It mutates the
// source's metadata, so callers must serialize it against every other
// method; see the type comment.
func (d *DirSource) Reload() (int, error) {
	data, size, err := readTail(filepath.Join(d.dir, indexFile), d.indexSize-int64(len(d.indexGuard)))
	if err != nil {
		return 0, err
	}
	// A file shorter than indexSize cannot hold the whole guard either.
	tail, intact := strings.CutPrefix(string(data), d.indexGuard)
	if !intact {
		return 0, fmt.Errorf("trace: %s: %w: index shrank below %d bytes or its last known batch changed (append-only contract broken)",
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
	s, _, err := decodeStream(b.raw, d.intern, b)
	return s, err
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
