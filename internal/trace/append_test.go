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
// it, and the appender starts index and intern table over, so the stale
// intern records of the crashed append cannot shift the IDs of the
// stream that lands next.
func TestAppenderStartsOverTornHeader(t *testing.T) {
	for name, torn := range map[string]string{"empty": "", "partial": "TSIND", "unterminated": "TSINDEX 4"} {
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
		{"TSINDEX 5\n", "found index version 5"},
		{"stream-00000.tscp\nstream-00001.tscp\n", "found a headerless (version 1)"},
		{"", "found an empty or torn index header"},
	} {
		_, err := parseIndex(tc.index)
		if !errors.Is(err, ErrBadFormat) {
			t.Fatalf("parseIndex(%q): err = %v, want ErrBadFormat", tc.index, err)
		}
		for _, want := range []string{tc.found, "supports only index version 4", "regenerate"} {
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
	const idx = "TSINDEX 4\n" +
		"s 1 \"stream-00000.tsc4\" \"m0\" 0 0 0\n"
	_, err := parseIndex(idx)
	if !errors.Is(err, ErrBadFormat) {
		t.Fatalf("err = %v, want ErrBadFormat", err)
	}
	if !strings.Contains(err.Error(), "sequence number 1 at position 0") {
		t.Fatalf("error %q does not name the bad sequence number", err)
	}
}
