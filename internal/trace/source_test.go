package trace

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// sourceTestCorpus builds a deterministic multi-stream corpus with two
// scenarios, for exercising the Source implementations.
func sourceTestCorpus(n int) *Corpus {
	c := &Corpus{}
	for i := 0; i < n; i++ {
		s := randomStream(int64(100 + i))
		s.ID = fmt.Sprintf("machine-%02d", i)
		if len(s.Events) > 0 {
			end := s.Events[len(s.Events)-1].End()
			s.Instances = append(s.Instances, Instance{
				Scenario: "S2", TID: 1, Start: 0, End: end/2 + 1,
			})
		}
		c.Add(s)
	}
	return c
}

func TestCorpusSatisfiesSource(t *testing.T) {
	c := sourceTestCorpus(3)
	var src Source = c
	if src.NumStreams() != 3 {
		t.Fatalf("NumStreams = %d, want 3", src.NumStreams())
	}
	for i := 0; i < 3; i++ {
		s, err := src.Stream(i)
		if err != nil {
			t.Fatalf("Stream(%d): %v", i, err)
		}
		if s != c.Streams[i] {
			t.Fatalf("Stream(%d) is not the resident stream", i)
		}
		m := src.StreamMeta(i)
		if m.ID != s.ID || m.Events != len(s.Events) || m.Duration != s.Duration() {
			t.Fatalf("StreamMeta(%d) = %+v disagrees with stream", i, m)
		}
		if !reflect.DeepEqual(m.Instances, s.Instances) {
			t.Fatalf("StreamMeta(%d).Instances disagree", i)
		}
	}
	for _, ref := range src.InstancesOf("") {
		_, in := c.Instance(ref)
		if got := src.InstanceMeta(ref); got != in {
			t.Fatalf("InstanceMeta(%v) = %+v, want %+v", ref, got, in)
		}
	}
	if _, err := src.Stream(99); err == nil {
		t.Fatal("Stream(99) succeeded on a 3-stream corpus")
	}
}

func TestDirSourceMatchesCorpus(t *testing.T) {
	c := sourceTestCorpus(4)
	dir := t.TempDir()
	if err := c.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}

	if d.NumStreams() != c.NumStreams() ||
		d.NumInstances() != c.NumInstances() ||
		d.NumEvents() != c.NumEvents() ||
		d.TotalDuration() != c.TotalDuration() {
		t.Fatalf("totals diverge: dir (%d,%d,%d,%v) vs corpus (%d,%d,%d,%v)",
			d.NumStreams(), d.NumInstances(), d.NumEvents(), d.TotalDuration(),
			c.NumStreams(), c.NumInstances(), c.NumEvents(), c.TotalDuration())
	}
	if !reflect.DeepEqual(d.Scenarios(), c.Scenarios()) {
		t.Fatalf("Scenarios diverge: %v vs %v", d.Scenarios(), c.Scenarios())
	}
	for _, scen := range []string{"", "S1", "S2", "absent"} {
		if !reflect.DeepEqual(d.InstancesOf(scen), c.InstancesOf(scen)) {
			t.Fatalf("InstancesOf(%q) diverge", scen)
		}
	}
	for i := 0; i < c.NumStreams(); i++ {
		dm, cm := d.StreamMeta(i), c.StreamMeta(i)
		cm.File = dm.File // in-memory metas carry no file name
		if !reflect.DeepEqual(dm, cm) {
			t.Fatalf("StreamMeta(%d) diverge:\n dir    %+v\n corpus %+v", i, dm, cm)
		}
		s, err := d.Stream(i)
		if err != nil {
			t.Fatalf("Stream(%d): %v", i, err)
		}
		if !streamsEqual(s, c.Streams[i]) {
			t.Fatalf("decoded stream %d differs from original", i)
		}
	}
	for _, ref := range c.InstancesOf("") {
		if d.InstanceMeta(ref) != c.InstanceMeta(ref) {
			t.Fatalf("InstanceMeta(%v) diverges", ref)
		}
	}

	mat, err := d.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.Streams {
		if !streamsEqual(mat.Streams[i], c.Streams[i]) {
			t.Fatalf("materialised stream %d differs", i)
		}
	}
}

// TestIndexCRLF rewrites the index with Windows line endings; both
// loaders must still parse it.
func TestIndexCRLF(t *testing.T) {
	c := sourceTestCorpus(2)
	dir := t.TempDir()
	if err := c.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, indexFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	crlf := strings.ReplaceAll(string(data), "\n", "\r\n")
	if err := os.WriteFile(path, []byte(crlf), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDir(dir); err != nil {
		t.Fatalf("ReadDir on CRLF index: %v", err)
	}
	d, err := OpenDir(dir)
	if err != nil {
		t.Fatalf("OpenDir on CRLF index: %v", err)
	}
	if d.NumEvents() != c.NumEvents() {
		t.Fatalf("CRLF index: %d events, want %d", d.NumEvents(), c.NumEvents())
	}
}

// TestIndexRejectsBadEntries checks that malformed intern records, a
// record still naming its file, a batch no stream record closes, and
// duplicated records fail with ErrBadFormat before any stream file is
// opened, through both loaders.
func TestIndexRejectsBadEntries(t *testing.T) {
	const stream = "s 0 \"m\" 0 0 0\n"
	cases := []struct {
		name    string
		records string
	}{
		{"stack-before-frame", "k 0\n" + stream},
		{"unquoted-frame", "f a!b\n" + stream},
		{"file-entry", "s 0 \"stream-00000.tsc4\" \"m\" 0 0 0\n"},
		{"unclosed-batch", stream + "f \"a!b\"\n"},
		{"negative-duration", "s 0 \"m\" 0 -1 0\n"},
		{"negative-event-count", "s 0 \"m\" -1 0 0\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, indexFile), []byte(indexHeader+"\n"+tc.records), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := ReadDir(dir); !errors.Is(err, ErrBadFormat) {
				t.Fatalf("ReadDir accepted %q (err=%v)", tc.records, err)
			}
			if _, err := OpenDir(dir); !errors.Is(err, ErrBadFormat) {
				t.Fatalf("OpenDir accepted %q (err=%v)", tc.records, err)
			}
		})
	}

	// Duplicates of a legitimate entry.
	c := sourceTestCorpus(1)
	dir := t.TempDir()
	if err := c.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, indexFile))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	dup := string(data) + strings.Join(lines[1:], "")
	if err := os.WriteFile(filepath.Join(dir, indexFile), []byte(dup), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDir(dir); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("ReadDir accepted duplicate entry (err=%v)", err)
	}
	if _, err := OpenDir(dir); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("OpenDir accepted duplicate entry (err=%v)", err)
	}
}

// TestDirSourceStaleIndex corrupts the index's instance records for a
// stream; fetching that stream must fail loudly rather than letting
// stale InstanceRefs index out of range.
func TestDirSourceStaleIndex(t *testing.T) {
	c := sourceTestCorpus(1)
	dir := t.TempDir()
	if err := c.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, indexFile))
	if err != nil {
		t.Fatal(err)
	}
	// Drop the last instance record and decrement the trailing
	// instance-count field of the stream record.
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	lines = lines[:len(lines)-1]
	n := len(c.Streams[0].Instances)
	rec := len(lines) - n
	if !strings.HasPrefix(lines[rec], "s 0 ") {
		t.Fatalf("test setup: line %d is %q, not the stream record", rec, lines[rec])
	}
	cut := strings.LastIndex(lines[rec], " ")
	lines[rec] = lines[rec][:cut+1] + fmt.Sprint(n-1)
	if err := os.WriteFile(filepath.Join(dir, indexFile),
		[]byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Stream(0); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("stale index not detected on fetch (err=%v)", err)
	}
}

func TestCachedSourceLRU(t *testing.T) {
	c := sourceTestCorpus(5)
	dir := t.TempDir()
	if err := c.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	cs := NewCachedSource(d, 2)

	fetch := func(i int) *Stream {
		t.Helper()
		s, err := cs.Stream(i)
		if err != nil {
			t.Fatalf("Stream(%d): %v", i, err)
		}
		if !streamsEqual(s, c.Streams[i]) {
			t.Fatalf("cached stream %d differs from original", i)
		}
		return s
	}

	s0 := fetch(0)
	fetch(1)
	if got := cs.Stats(); got.Hits != 0 || got.Misses != 2 || got.Evictions != 0 || got.Size != 2 {
		t.Fatalf("after two cold fetches: %+v", got)
	}
	if again := fetch(0); again != s0 {
		t.Fatal("hit did not return the cached stream pointer")
	}
	if got := cs.Stats(); got.Hits != 1 || got.Misses != 2 {
		t.Fatalf("after hit: %+v", got)
	}
	fetch(2) // evicts 1 (0 was touched more recently)
	if got := cs.Stats(); got.Evictions != 1 || got.Size != 2 {
		t.Fatalf("after eviction: %+v", got)
	}
	if again := fetch(0); again != s0 {
		t.Fatal("LRU evicted the recently used stream")
	}
	fetch(1) // re-decode: a miss
	if got := cs.Stats(); got.Misses != 4 {
		t.Fatalf("re-fetch of evicted stream was not a miss: %+v", got)
	}
	if got := cs.Stats(); got.HighWater > 3 {
		t.Fatalf("sequential high-water %d exceeds limit+1", got.HighWater)
	}

	if cs.Limit() != 2 {
		t.Fatalf("Limit() = %d, want 2", cs.Limit())
	}
}

func TestCachedSourceUnbounded(t *testing.T) {
	c := sourceTestCorpus(4)
	dir := t.TempDir()
	if err := c.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	cs := NewCachedSource(d, 0)
	for round := 0; round < 3; round++ {
		for i := 0; i < 4; i++ {
			if _, err := cs.Stream(i); err != nil {
				t.Fatal(err)
			}
		}
	}
	got := cs.Stats()
	if got.Misses != 4 || got.Hits != 8 || got.Evictions != 0 || got.Size != 4 {
		t.Fatalf("unbounded cache stats: %+v", got)
	}
}

// TestCachedSourceConcurrent hammers one bounded cache from many
// goroutines (run under -race in CI) and checks every fetch yields the
// right stream and the high-water mark stays within limit + fetchers.
func TestCachedSourceConcurrent(t *testing.T) {
	const (
		limit   = 2
		workers = 8
		rounds  = 40
	)
	c := sourceTestCorpus(6)
	dir := t.TempDir()
	if err := c.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	cs := NewCachedSource(d, limit)

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Mostly hammer a hot set that fits the cache (hits and
				// in-flight sharing), with periodic cold fetches to keep
				// eviction churning underneath.
				i := r % limit
				if r%10 == 0 {
					i = limit + (r/10)%(c.NumStreams()-limit)
				}
				s, err := cs.Stream(i)
				if err != nil {
					errs <- err
					return
				}
				if s.ID != c.Streams[i].ID {
					errs <- fmt.Errorf("stream %d: got ID %q", i, s.ID)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	got := cs.Stats()
	if got.HighWater > limit+workers {
		t.Fatalf("high-water %d exceeds limit(%d) + workers(%d)", got.HighWater, limit, workers)
	}
	if got.Size > limit {
		t.Fatalf("final size %d exceeds limit %d", got.Size, limit)
	}
	if got.Misses == 0 || got.Hits == 0 {
		t.Fatalf("degenerate concurrency test: %+v", got)
	}
}

func TestSourceInstancesCSV(t *testing.T) {
	c := sourceTestCorpus(2)
	dir := t.TempDir()
	if err := c.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var mem, lazy strings.Builder
	if err := c.WriteInstancesCSV(&mem); err != nil {
		t.Fatal(err)
	}
	if err := WriteSourceInstancesCSV(&lazy, d); err != nil {
		t.Fatal(err)
	}
	if mem.String() != lazy.String() {
		t.Fatal("lazy instances CSV differs from in-memory export")
	}
}
