package trace

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestAppenderRoundTrip grows a fresh corpus one stream at a time and
// checks that OpenDir sees exactly what was appended.
func TestAppenderRoundTrip(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenAppender(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []*Stream{randomStream(1), randomStream(2), randomStream(3)}
	for i, s := range want {
		idx, err := a.Append(s)
		if err != nil {
			t.Fatal(err)
		}
		if idx != i {
			t.Fatalf("Append returned index %d, want %d", idx, i)
		}
	}
	if a.NumStreams() != len(want) {
		t.Fatalf("NumStreams = %d, want %d", a.NumStreams(), len(want))
	}

	d, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumStreams() != len(want) {
		t.Fatalf("OpenDir sees %d streams, want %d", d.NumStreams(), len(want))
	}
	for i, w := range want {
		got, err := d.Stream(i)
		if err != nil {
			t.Fatal(err)
		}
		if !streamsEqual(got, w) {
			t.Fatalf("stream %d round-trip mismatch", i)
		}
		m := d.StreamMeta(i)
		if m.ID != w.ID || m.Events != len(w.Events) || !reflect.DeepEqual(m.Instances, w.Instances) {
			t.Fatalf("stream %d metadata mismatch: %+v", i, m)
		}
	}
}

// TestAppenderContinuesExistingCorpus reopens a corpus written by
// WriteDir and appends to it; numbering continues from the batch part.
func TestAppenderContinuesExistingCorpus(t *testing.T) {
	dir := t.TempDir()
	c := NewCorpus(randomStream(1), randomStream(2))
	if err := c.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	a, err := OpenAppender(dir)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumStreams() != 2 {
		t.Fatalf("NumStreams = %d, want 2", a.NumStreams())
	}
	idx, err := a.Append(randomStream(3))
	if err != nil {
		t.Fatal(err)
	}
	if idx != 2 {
		t.Fatalf("Append returned index %d, want 2", idx)
	}
	d, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumStreams() != 3 {
		t.Fatalf("OpenDir sees %d streams, want 3", d.NumStreams())
	}
	if _, err := d.Stream(2); err != nil {
		t.Fatal(err)
	}
}

// TestAppenderRefusesForeignWriter: two appenders on one directory, over
// a corpus and over an empty one. B appends, then A tries to: A's stream
// count and intern IDs are stale, so it must fail without touching the
// directory, which stays B's corpus and loads clean.
func TestAppenderRefusesForeignWriter(t *testing.T) {
	for _, existing := range []int{1, 0} {
		dir := t.TempDir()
		if existing > 0 {
			if err := NewCorpus(randomStream(1)).WriteDir(dir); err != nil {
				t.Fatal(err)
			}
		}
		a, err := OpenAppender(dir)
		if err != nil {
			t.Fatal(err)
		}
		b, err := OpenAppender(dir)
		if err != nil {
			t.Fatal(err)
		}
		want := randomStream(2)
		if _, err := b.Append(want); err != nil {
			t.Fatal(err)
		}
		files := dirFiles(t, dir)
		for try := 0; try < 2; try++ {
			if _, err := a.Append(randomStream(3)); err == nil {
				t.Fatalf("existing=%d: A appended behind B (try %d)", existing, try)
			}
		}
		if got := dirFiles(t, dir); !reflect.DeepEqual(got, files) {
			t.Fatalf("existing=%d: A's refused appends changed the directory", existing)
		}
		d, err := OpenDir(dir)
		if err != nil {
			t.Fatalf("existing=%d: OpenDir after A's refused append: %v", existing, err)
		}
		if d.NumStreams() != existing+1 {
			t.Fatalf("existing=%d: OpenDir sees %d streams, want %d", existing, d.NumStreams(), existing+1)
		}
		got, err := d.Stream(existing)
		if err != nil {
			t.Fatal(err)
		}
		if !streamsEqual(got, want) {
			t.Fatalf("existing=%d: stream %d is not B's", existing, existing)
		}
	}
}

// dirFiles returns every file in dir by name, with its contents.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string, len(entries))
	for _, e := range entries {
		files[e.Name()] = mustReadFile(t, filepath.Join(dir, e.Name()))
	}
	return files
}

// TestWriteDirReplacesCorpus: WriteDir over a directory holding a corpus
// replaces it — OpenDir reads back exactly the new streams (for none,
// from header-only files) and an Appender continues after them.
func TestWriteDirReplacesCorpus(t *testing.T) {
	for _, n := range []int{2, 0} {
		dir := t.TempDir()
		old := NewCorpus(randomStream(11), randomStream(12), randomStream(13), randomStream(14), randomStream(15))
		if err := old.WriteDir(dir); err != nil {
			t.Fatal(err)
		}
		c := NewCorpus()
		for i := 0; i < n; i++ {
			c.Add(randomStream(int64(i + 1)))
		}
		if err := c.WriteDir(dir); err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			if got := mustReadFile(t, filepath.Join(dir, indexFile)); got != indexHeader+"\n" {
				t.Errorf("empty corpus index = %q, want the header line", got)
			}
		}
		d, err := OpenDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if d.NumStreams() != n {
			t.Fatalf("n=%d: OpenDir sees %d streams", n, d.NumStreams())
		}
		for i, want := range c.Streams {
			if got, err := d.Stream(i); err != nil || !streamsEqual(got, want) {
				t.Fatalf("n=%d: stream %d does not read back (%v)", n, i, err)
			}
		}
		a, err := OpenAppender(dir)
		if err != nil {
			t.Fatal(err)
		}
		next := randomStream(9)
		if idx, err := a.Append(next); err != nil || idx != n {
			t.Fatalf("n=%d: Append returned %d, %v; want %d", n, idx, err, n)
		}
		if d, err = OpenDir(dir); err != nil {
			t.Fatal(err)
		}
		if got, err := d.Stream(n); d.NumStreams() != n+1 || err != nil || !streamsEqual(got, next) {
			t.Fatalf("n=%d: after one append OpenDir sees %d streams, stream %d: %v", n, d.NumStreams(), n, err)
		}
	}
}

// TestAppenderRejectsInvalidStream checks that a stream failing
// validation is not written at all.
func TestAppenderRejectsInvalidStream(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenAppender(dir)
	if err != nil {
		t.Fatal(err)
	}
	bad := NewStream("bad")
	bad.Instances = append(bad.Instances, Instance{Scenario: "", TID: 0, Start: 0, End: 1})
	if _, err := a.Append(bad); err == nil {
		t.Fatal("Append accepted an invalid stream")
	}
	if a.NumStreams() != 0 {
		t.Fatalf("NumStreams = %d after rejected append, want 0", a.NumStreams())
	}
	if _, err := os.Stat(filepath.Join(dir, indexFile)); !os.IsNotExist(err) {
		t.Fatalf("rejected append created an index: %v", err)
	}
}

// TestAppenderStartsOverTornHeader: an index that is empty or a strict
// prefix of the header line committed nothing — the crash shape of a
// first append torn inside the header write. The strict loader rejects
// it, and the appender starts the index over, so the stream that lands
// next is stream 0 with intern IDs of its own.
func TestAppenderStartsOverTornHeader(t *testing.T) {
	for name, torn := range map[string]string{"empty": "", "partial": "TSIND", "unterminated": indexHeader} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			crashed, err := OpenAppender(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := crashed.Append(randomStream(1)); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, indexFile), []byte(torn), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := OpenDir(dir); !errors.Is(err, ErrBadFormat) {
				t.Fatalf("OpenDir over a torn header: err = %v, want ErrBadFormat", err)
			}

			a, err := OpenAppender(dir)
			if err != nil {
				t.Fatalf("OpenAppender over a torn header: %v", err)
			}
			want := randomStream(2)
			if idx, err := a.Append(want); err != nil || idx != 0 {
				t.Fatalf("Append = %d, %v; want stream 0", idx, err)
			}
			d, err := OpenDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if d.NumStreams() != 1 {
				t.Fatalf("OpenDir sees %d streams, want 1", d.NumStreams())
			}
			got, err := d.Stream(0)
			if err != nil {
				t.Fatal(err)
			}
			if !streamsEqual(want, got) {
				t.Fatal("stream appended over a torn header decodes differently")
			}
		})
	}
}

// TestDirSourceReload checks incremental discovery: a source opened over
// a growing corpus picks up appended streams without disturbing the
// metadata (or stream indices) of streams it already knows.
func TestDirSourceReload(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenAppender(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Append(randomStream(1)); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	wantInstances := d.NumInstances()
	wantEvents := d.NumEvents()
	wantDur := d.TotalDuration()

	n, err := d.Reload()
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("Reload with nothing new discovered %d streams", n)
	}

	s2, s3 := randomStream(2), randomStream(3)
	if _, err := a.Append(s2); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Append(s3); err != nil {
		t.Fatal(err)
	}
	n, err = d.Reload()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("Reload discovered %d streams, want 2", n)
	}
	if d.NumStreams() != 3 {
		t.Fatalf("NumStreams = %d after reload, want 3", d.NumStreams())
	}
	if got := d.NumInstances(); got != wantInstances+len(s2.Instances)+len(s3.Instances) {
		t.Fatalf("NumInstances = %d after reload", got)
	}
	if got := d.NumEvents(); got != wantEvents+len(s2.Events)+len(s3.Events) {
		t.Fatalf("NumEvents = %d after reload", got)
	}
	if got := d.TotalDuration(); got != wantDur+s2.Duration()+s3.Duration() {
		t.Fatalf("TotalDuration = %d after reload", got)
	}
	got, err := d.Stream(2)
	if err != nil {
		t.Fatal(err)
	}
	if !streamsEqual(got, s3) {
		t.Fatal("reloaded stream 2 does not match appended stream")
	}
}

// TestDirSourceReloadRejectsRewrite checks the append-only contract: a
// reload over an index whose existing records changed (or shrank) fails
// with ErrBadFormat instead of silently renumbering streams.
func TestDirSourceReloadRejectsRewrite(t *testing.T) {
	newCorpusDir := func(t *testing.T) (*DirSource, string) {
		t.Helper()
		dir := t.TempDir()
		a, err := OpenAppender(dir)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 2; seed++ {
			if _, err := a.Append(randomStream(seed)); err != nil {
				t.Fatal(err)
			}
		}
		d, err := OpenDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		return d, filepath.Join(dir, indexFile)
	}

	t.Run("shrink", func(t *testing.T) {
		d, index := newCorpusDir(t)
		data, err := os.ReadFile(index)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitAfter(string(data), "\n")
		truncated := strings.Join(lines[:len(lines)/2], "")
		if err := os.WriteFile(index, []byte(truncated), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Reload(); !errors.Is(err, ErrBadFormat) {
			t.Fatalf("Reload over a shrunk index: err = %v, want ErrBadFormat", err)
		}
	})

	t.Run("rewrite", func(t *testing.T) {
		d, index := newCorpusDir(t)
		data, err := os.ReadFile(index)
		if err != nil {
			t.Fatal(err)
		}
		rewritten := strings.Replace(string(data), `"rnd"`, `"other"`, 1)
		if rewritten == string(data) {
			t.Fatal("test setup: stream ID not found in index")
		}
		if err := os.WriteFile(index, []byte(rewritten), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Reload(); !errors.Is(err, ErrBadFormat) {
			t.Fatalf("Reload over a rewritten index: err = %v, want ErrBadFormat", err)
		}
	})
}

// TestParseIndexUnsupportedVersion checks that every index other than
// the one supported version — older, newer, headerless, empty — fails
// with an actionable error naming both what was found and the single
// supported version, not a bare mismatch.
func TestParseIndexUnsupportedVersion(t *testing.T) {
	for _, tc := range []struct{ index, found string }{
		{"TSINDEX 2\ns \"stream-00000.tscp\" \"m0\" 0 0 0\n", "found index version 2"},
		{"TSINDEX 3\ns 0 \"stream-00000.tscp\" \"m0\" 0 0 0\n", "found index version 3"},
		{"TSINDEX 4\ns 0 \"stream-00000.tsc4\" \"m0\" 0 0 0\n", "found index version 4"},
		{"TSINDEX 6\n", "found index version 6"},
		{"stream-00000.tscp\nstream-00001.tscp\n", "found a headerless (version 1)"},
		{"", "found an empty or torn index header"},
	} {
		_, _, err := parseIndex(tc.index)
		if !errors.Is(err, ErrBadFormat) {
			t.Fatalf("parseIndex(%q): err = %v, want ErrBadFormat", tc.index, err)
		}
		for _, want := range []string{tc.found, "supports only index version 5", "regenerate"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("parseIndex(%q): error %q does not mention %q", tc.index, err, want)
			}
		}
	}
}

// TestParseIndexSequenceMismatch checks sequence validation: records
// out of order (a truncated-then-regrown or hand-edited index) are
// rejected.
func TestParseIndexSequenceMismatch(t *testing.T) {
	const idx = indexHeader + "\n" +
		"s 1 \"m0\" 0 0 0\n"
	_, _, err := parseIndex(idx)
	if !errors.Is(err, ErrBadFormat) {
		t.Fatalf("err = %v, want ErrBadFormat", err)
	}
	if !strings.Contains(err.Error(), "sequence number 1 at position 0") {
		t.Fatalf("error %q does not name the bad sequence number", err)
	}
}

// reloadCorpus appends n random streams (two instances each) to a fresh
// directory and returns it with its appender and the index path.
func reloadCorpus(t testing.TB, n int) (dir string, a *Appender, index string) {
	t.Helper()
	dir = t.TempDir()
	a, err := OpenAppender(dir)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		appendRandom(t, a, seed)
	}
	return dir, a, filepath.Join(dir, indexFile)
}

func appendRandom(t testing.TB, a *Appender, seed int64) *Stream {
	t.Helper()
	s := randomStream(seed)
	s.Instances = append(s.Instances, Instance{Scenario: "S2", TID: 1, Start: 1, End: 2})
	if _, err := a.Append(s); err != nil {
		t.Fatal(err)
	}
	return s
}

func mustReadFile(t testing.TB, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func mustWriteFile(t testing.TB, path, data string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

// reloadState is everything a reload may change, for before/after and
// split/whole comparisons.
type reloadState struct {
	Metas             []StreamMeta
	Instances, Events int
	Duration          Duration
	Scenarios         []ScenarioCount
	Refs              []InstanceRef
	IndexSize         int64
	IndexGuard        string
	Frames            []string
	Stacks            [][]FrameID
}

func stateOf(d *DirSource) reloadState {
	return reloadState{
		Metas:     append([]StreamMeta{}, d.metas...),
		Instances: d.NumInstances(), Events: d.NumEvents(), Duration: d.TotalDuration(),
		Scenarios: d.Scenarios(), Refs: d.InstancesOf(""),
		IndexSize: d.indexSize, IndexGuard: d.indexGuard,
		Frames: append([]string{}, d.intern.frames...), Stacks: append([][]FrameID{}, d.intern.stacks...),
	}
}

// recordBoundaries returns every offset of index at which a batch
// starts — a stream or intern record that does not follow an intern
// record — and its length: the places an append can have stopped.
func recordBoundaries(index string) []int {
	var cuts []int
	inBatch := false
	for p := 1; p < len(index); p++ {
		if index[p-1] != '\n' {
			continue
		}
		line, _, _ := strings.Cut(index[p:], "\n")
		tag, _, _ := strings.Cut(strings.TrimSuffix(line, "\r"), " ")
		switch tag {
		case "":
			continue
		case "f", "k", "s":
			if !inBatch {
				cuts = append(cuts, p)
			}
		}
		inBatch = tag == "f" || tag == "k"
	}
	return append(cuts, len(index))
}

// checkReloadSplit is the split-equivalence contract: for every record
// boundary, OpenDir over the index up to it followed by Reload over the
// whole must end in the state OpenDir over the whole reaches, or fail
// where that fails; and a failed Reload must change nothing. dir needs a
// directory; the index file is overwritten.
func checkReloadSplit(t testing.TB, dir, whole string) {
	t.Helper()
	path := filepath.Join(dir, indexFile)
	mustWriteFile(t, path, whole)
	var want reloadState
	full, wholeErr := OpenDir(dir)
	if wholeErr == nil {
		want = stateOf(full)
	}
	for _, cut := range recordBoundaries(whole) {
		mustWriteFile(t, path, whole[:cut])
		d, err := OpenDir(dir)
		if err != nil {
			// A prefix only fails where the whole does too.
			if wholeErr == nil {
				t.Fatalf("OpenDir rejects the first %d bytes of an index it accepts whole: %v", cut, err)
			}
			continue
		}
		before := stateOf(d)
		mustWriteFile(t, path, whole)
		n, err := d.Reload()
		if (err == nil) != (wholeErr == nil) {
			t.Fatalf("cut at %d: Reload err = %v, OpenDir over the whole err = %v", cut, err, wholeErr)
		}
		if err != nil {
			if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("cut at %d: Reload rejection is not ErrBadFormat: %v", cut, err)
			}
			if got := stateOf(d); !reflect.DeepEqual(got, before) {
				t.Fatalf("cut at %d: failed Reload changed the source:\n got %+v\nwant %+v", cut, got, before)
			}
			continue
		}
		if got := stateOf(d); n != len(want.Metas)-len(before.Metas) || !reflect.DeepEqual(got, want) {
			t.Fatalf("cut at %d: OpenDir+Reload (%d new) differs from OpenDir over the whole:\n got %+v\nwant %+v", cut, n, got, want)
		}
	}
}

// TestReloadSplitEquivalence: wherever a six-stream index is cut between
// records, opening the first part and reloading the rest equals opening
// it whole.
func TestReloadSplitEquivalence(t *testing.T) {
	dir, _, index := reloadCorpus(t, 6)
	whole := mustReadFile(t, index)
	if got := len(recordBoundaries(whole)); got != 7 {
		t.Fatalf("test setup: %d record boundaries in a 6-stream index, want 7", got)
	}
	checkReloadSplit(t, dir, whole)
}

// TestReloadReadsOnlyTheTail pins the documented trade: Reload compares
// its last known record and parses what follows, so an in-place,
// length-preserving edit of an earlier record passes it — as it passes
// the appender's length guard.
func TestReloadReadsOnlyTheTail(t *testing.T) {
	dir, a, index := reloadCorpus(t, 3)
	d, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	data := mustReadFile(t, index)
	edited := strings.Replace(data, `"rnd"`, `"dnr"`, 1)
	if edited == data || strings.Index(data, `"rnd"`) >= recordBoundaries(data)[1] {
		t.Fatal("test setup: the edit must land in stream record 0")
	}
	mustWriteFile(t, index, edited)
	want := appendRandom(t, a, 4)

	if n, err := d.Reload(); n != 1 || err != nil {
		t.Fatalf("Reload = %d, %v; want 1 new stream", n, err)
	}
	got, err := d.Stream(3)
	if err != nil {
		t.Fatal(err)
	}
	if !streamsEqual(got, want) {
		t.Fatal("reloaded stream 3 does not match the appended stream")
	}
}

// newFrameStream returns a valid stream whose two frames, module
// mod's, and whose stacks no randomStream holds: its batch carries
// intern records.
func newFrameStream(mod string) *Stream {
	s := NewStream(mod)
	entry := s.InternStackStrings(mod + "!Entry")
	worker := s.InternStackStrings(mod+"!Entry", mod+"!Worker")
	s.AppendEvent(Event{Type: Running, Time: 0, Cost: 10, TID: 0, WTID: NoThread, Stack: entry})
	s.AppendEvent(Event{Type: Running, Time: 10, Cost: 10, TID: 0, WTID: NoThread, Stack: worker})
	s.SetThread(0, "App", "T0")
	s.Instances = append(s.Instances, Instance{Scenario: "S1", TID: 0, Start: 0, End: 50})
	return s
}

// TestReloadTornTailIsAtomic: a batch cut anywhere — inside a line, in
// its intern records, or between its "s" line and the end of its
// instance list — fails the reload and changes nothing, intern table
// included, and the same source reloads the batch once it is whole.
func TestReloadTornTailIsAtomic(t *testing.T) {
	dir, a, index := reloadCorpus(t, 2)
	d, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	before := stateOf(d)
	known := mustReadFile(t, index)
	if _, err := a.Append(newFrameStream("torn.sys")); err != nil {
		t.Fatal(err)
	}
	whole := mustReadFile(t, index)
	if batch := whole[len(known):]; !strings.HasPrefix(batch, "f ") || !strings.Contains(batch, "\nk ") {
		t.Fatalf("test setup: appended batch %q carries no intern records", batch)
	}
	for cut := len(known) + 1; cut < len(whole); cut++ {
		mustWriteFile(t, index, whole[:cut])
		if _, err := d.Reload(); !errors.Is(err, ErrBadFormat) {
			t.Fatalf("Reload over a batch cut after %q: err = %v, want ErrBadFormat", whole[len(known):cut], err)
		}
		if got := stateOf(d); !reflect.DeepEqual(got, before) {
			t.Fatalf("failed Reload (batch cut after %q) changed the source:\n got %+v\nwant %+v", whole[len(known):cut], got, before)
		}
	}
	mustWriteFile(t, index, whole)
	if n, err := d.Reload(); n != 1 || err != nil {
		t.Fatalf("Reload over the completed batch = %d, %v; want 1", n, err)
	}
	if d.NumStreams() != 3 || d.NumInstances() != before.Instances+1 || d.intern.NumFrames() != len(before.Frames)+2 {
		t.Fatalf("after the completed reload: %d streams, %d instances, %d frames", d.NumStreams(), d.NumInstances(), d.intern.NumFrames())
	}
}

// TestReloadRejectsBadTailRecords: a tail batch must continue the
// sequence, carry records of this version (no file name), and name only
// frames defined before it; a rejected tail leaves the source as it was.
func TestReloadRejectsBadTailRecords(t *testing.T) {
	for name, record := range map[string]string{
		"old file name":   `s 3 "stream-00003.tsc4" "x" 0 0 0`,
		"sequence gap":    `s 4 "x" 0 0 0`,
		"sequence repeat": `s 2 "x" 0 0 0`,
		"second of two":   "s 3 \"x\" 0 0 0\ns 3 \"x\" 0 0 0",
		"undefined frame": "f \"new!F\"\nk 0 99\ns 3 \"x\" 0 0 0",
		"torn batch":      "f \"new!F\"\nk 0",
	} {
		t.Run(name, func(t *testing.T) {
			dir, _, index := reloadCorpus(t, 3)
			d, err := OpenDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			before := stateOf(d)
			known := mustReadFile(t, index)
			mustWriteFile(t, index, known+record+"\n")
			if _, err := d.Reload(); !errors.Is(err, ErrBadFormat) {
				t.Fatalf("Reload over %q: err = %v, want ErrBadFormat", record, err)
			}
			if got := stateOf(d); !reflect.DeepEqual(got, before) {
				t.Fatalf("failed Reload changed the source:\n got %+v\nwant %+v", got, before)
			}
			mustWriteFile(t, index, known+"s 3 \"x\" 0 0 0\n")
			if n, err := d.Reload(); n != 1 || err != nil {
				t.Fatalf("Reload over a well-formed record after the rejection = %d, %v; want 1", n, err)
			}
		})
	}
}
