package trace

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestV4RoundTrip checks that a v4 corpus decodes to streams
// indistinguishable from the in-memory originals — same local frame and
// stack ID spaces, events, instances, and threads — with and without
// block compression. Bit-for-bit analysis equivalence across formats
// rests on this.
func TestV4RoundTrip(t *testing.T) {
	streams := []*Stream{randomStream(1), randomStream(2), randomStream(3)}
	c := NewCorpus(streams...)
	for _, tc := range []struct {
		name  string
		write func(dir string) error
	}{
		{"plain", func(dir string) error { return c.WriteDir(dir) }},
		{"compressed", func(dir string) error { return writeDirCompressed(c, dir) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := tc.write(dir); err != nil {
				t.Fatal(err)
			}
			d, err := OpenDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for i, want := range streams {
				got, err := d.Stream(i)
				if err != nil {
					t.Fatal(err)
				}
				if !streamsEqual(got, want) {
					t.Fatalf("stream %d round-trip mismatch", i)
				}
			}
		})
	}
}

// writeDirCompressed writes c to a fresh dir through an Appender with
// block compression on.
func writeDirCompressed(c *Corpus, dir string) error {
	app, err := OpenAppender(dir)
	if err != nil {
		return err
	}
	app.SetCompression(true)
	for _, s := range c.Streams {
		if _, err := app.Append(s); err != nil {
			return err
		}
	}
	return nil
}

// TestV4InternSharing checks that streams sharing frames share intern
// table entries: the corpus-level table holds each distinct frame once.
func TestV4InternSharing(t *testing.T) {
	// randomStream draws from the same 5-frame universe for every seed.
	c := NewCorpus(randomStream(1), randomStream(2), randomStream(3), randomStream(4))
	dir := t.TempDir()
	if err := c.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := d.intern.NumFrames(); n > 5 {
		t.Fatalf("intern table holds %d frames for a 5-frame universe", n)
	}
	sum := 0
	for i := 0; i < c.NumStreams(); i++ {
		sum += c.Streams[i].NumFrames()
	}
	if d.intern.NumFrames() >= sum && sum > 5 {
		t.Fatalf("intern table (%d frames) shows no cross-stream sharing (per-stream sum %d)", d.intern.NumFrames(), sum)
	}
}

// TestV4AppendReloadInternTail checks the incremental path: an open
// DirSource picks up appended streams — including brand-new frames and
// stacks whose intern records land in the index's tail — via Reload
// alone.
func TestV4AppendReloadInternTail(t *testing.T) {
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
	framesBefore := d.intern.NumFrames()

	// A stream with frames no prior stream interned.
	fresh := NewStream("fresh")
	st := fresh.InternStackStrings("newmod.sys!Entry", "newmod.sys!Worker")
	fresh.AppendEvent(Event{Type: Running, Time: 0, Cost: 10, TID: 0, WTID: NoThread, Stack: st})
	fresh.SetThread(0, "App", "T0")
	fresh.Instances = append(fresh.Instances, Instance{Scenario: "S1", TID: 0, Start: 0, End: 50})
	if err := fresh.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Append(fresh); err != nil {
		t.Fatal(err)
	}

	n, err := d.Reload()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("Reload discovered %d streams, want 1", n)
	}
	if d.intern.NumFrames() != framesBefore+2 {
		t.Fatalf("intern table has %d frames after reload, want %d", d.intern.NumFrames(), framesBefore+2)
	}
	got, err := d.Stream(1)
	if err != nil {
		t.Fatal(err)
	}
	if !streamsEqual(got, fresh) {
		t.Fatal("appended stream does not round-trip through the intern tail")
	}
}

// TestV4ReloadRejectsShrunkIntern checks the append-only contract on
// the intern records: an index whose committed frame records were cut
// fails Reload with ErrBadFormat, however much has been appended since.
func TestV4ReloadRejectsShrunkIntern(t *testing.T) {
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
	if _, err := a.Append(newFrameStream("more.sys")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, indexFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f := bytes.Index(data, []byte("\nf "))
	if f < 0 {
		t.Fatal("test setup: no frame record in the index")
	}
	end := f + 1 + bytes.IndexByte(data[f+1:], '\n')
	if err := os.WriteFile(path, append(data[:f:f], data[end:]...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Reload(); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("Reload over an index whose frame record was cut: err = %v, want ErrBadFormat", err)
	}
}

// TestStreamIntoReusesBuffers: a sweep through one Scratch decodes every
// stream correctly into the same memory — the second decode's events
// start where the first's did — while Stream, and a second Scratch,
// decode into memory of their own; and a CachedSource's StreamInto
// counts the miss, decodes into the caller's Scratch and inserts nothing.
func TestStreamIntoReusesBuffers(t *testing.T) {
	dir := t.TempDir()
	c := NewCorpus(randomStream(2), randomStream(1), randomStream(3))
	if err := c.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var sc, other Scratch
	s0, err := d.StreamInto(0, &sc)
	if err != nil {
		t.Fatal(err)
	}
	if !streamsEqual(s0, c.Streams[0]) {
		t.Fatal("stream decoded into a fresh Scratch mismatches the original")
	}
	first := &s0.Events[0]
	owned, err := d.Stream(1)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := d.StreamInto(1, &sc)
	if err != nil {
		t.Fatal(err)
	}
	if !streamsEqual(s1, c.Streams[1]) || !streamsEqual(owned, c.Streams[1]) {
		t.Fatal("stream decoded into a reused Scratch mismatches the original")
	}
	if s1 == s0 {
		t.Error("two decodes returned the same *Stream: a FilterCache tells streams apart by address")
	}
	if &s1.Events[0] != first {
		t.Error("the second decode through one Scratch did not reuse the first's event buffer")
	}
	if &owned.Events[0] == first {
		t.Error("Stream decoded into the caller's Scratch")
	}
	s2, err := d.StreamInto(2, &other)
	if err != nil {
		t.Fatal(err)
	}
	if &s2.Events[0] == first || !streamsEqual(s1, c.Streams[1]) {
		t.Error("a decode through a second Scratch disturbed the first's stream")
	}

	cached := NewCachedSource(d, 2)
	if _, err := cached.Stream(0); err != nil {
		t.Fatal(err)
	}
	hit, err := cached.StreamInto(0, &sc)
	if err != nil {
		t.Fatal(err)
	}
	miss, err := cached.StreamInto(2, &sc)
	if err != nil {
		t.Fatal(err)
	}
	if !streamsEqual(hit, c.Streams[0]) || !streamsEqual(miss, c.Streams[2]) {
		t.Fatal("CachedSource.StreamInto returned the wrong streams")
	}
	if &miss.Events[0] != &sc.events[0] {
		t.Error("CachedSource.StreamInto missed and did not decode into the caller's Scratch")
	}
	want := SourceCacheStats{Hits: 1, Misses: 2, Size: 1, HighWater: 1}
	if st := cached.Stats(); st != want {
		t.Errorf("cache stats = %+v, want %+v: a StreamInto miss is counted and not inserted", st, want)
	}
}

// TestV4DecodedStreamCanIntern checks that a v4-decoded stream still
// supports interning new frames and stacks (index maps rebuild lazily)
// without disturbing existing IDs.
func TestV4DecodedStreamCanIntern(t *testing.T) {
	dir := t.TempDir()
	orig := randomStream(1)
	if err := NewCorpus(orig).WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := d.Stream(0)
	if err != nil {
		t.Fatal(err)
	}
	// Re-interning an existing frame must return its existing ID.
	want := s.Frame(0)
	if got := s.InternFrame(want); got != 0 {
		t.Fatalf("InternFrame(%q) = %d, want 0", want, got)
	}
	// A fresh frame gets the next ID.
	n := s.NumFrames()
	if got := s.InternFrame("brandnew.sys!F"); int(got) != n {
		t.Fatalf("InternFrame(new) = %d, want %d", got, n)
	}
	// Same for stacks.
	existing := s.Stack(0)
	if got := s.InternStack(existing); got != 0 {
		t.Fatalf("InternStack(existing) = %d, want 0", got)
	}
}

// TestV4CorruptInputs mutates a valid v4 stream file in targeted ways;
// every mutation must fail decode with ErrBadFormat, never panic.
func TestV4CorruptInputs(t *testing.T) {
	dir := t.TempDir()
	if err := NewCorpus(randomStream(1)).WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	name := d.StreamMeta(0).File
	valid, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	var sc Scratch // one buffer set through every case
	for _, tc := range []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }},
		{"bad version", func(b []byte) []byte { b[4] = 9; return b }},
		{"truncated half", func(b []byte) []byte { return b[:len(b)/2] }},
		{"truncated tail", func(b []byte) []byte { return b[:len(b)-3] }},
		{"trailing garbage", func(b []byte) []byte { return append(b, 0xFF, 0xFF) }},
		{"frame ref out of range", func(b []byte) []byte {
			// The first frame-table entry follows magic(4) + version(2) +
			// ID string + table length. Blow up the referenced global ID.
			c := &byteCursor{data: b, off: 6}
			if _, err := c.string(); err != nil {
				t.Fatal(err)
			}
			if _, err := c.uvarint(); err != nil { // table length
				t.Fatal(err)
			}
			b[c.off] = 0x7F // global frame 127 in a 5-frame table
			return b
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mutated := tc.mutate(append([]byte(nil), valid...))
			_, _, err := decodeStream(mutated, d.intern, &sc)
			if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("decode of %s input: err = %v, want ErrBadFormat", tc.name, err)
			}
			// Only a reference past the intern table is an undefined one.
			if got, want := errors.Is(err, ErrUndefinedRef), tc.name == "frame ref out of range"; got != want {
				t.Fatalf("decode of %s input: err = %v matches ErrUndefinedRef: %v, want %v", tc.name, err, got, want)
			}
			// A failed decode leaves the Scratch good for the next one.
			if _, _, err := decodeStream(valid, d.intern, &sc); err != nil {
				t.Fatalf("valid decode after the %s failure: %v", tc.name, err)
			}
		})
	}
}

// TestCollectDirStats checks the skim path agrees with the index and
// with block-level expectations for plain and compressed corpora.
func TestCollectDirStats(t *testing.T) {
	streams := []*Stream{randomStream(1), randomStream(2)}
	wantEvents := 0
	for _, s := range streams {
		wantEvents += len(s.Events)
	}
	c := NewCorpus(streams...)

	t.Run("v4", func(t *testing.T) {
		dir := t.TempDir()
		if err := c.WriteDir(dir); err != nil {
			t.Fatal(err)
		}
		st, err := CollectDirStats(dir)
		if err != nil {
			t.Fatal(err)
		}
		if st.Streams != 2 || st.Events != wantEvents {
			t.Fatalf("stats = %+v", st)
		}
		if st.Blocks != 2 { // each stream has < DefaultBlockRows events
			t.Fatalf("Blocks = %d, want 2", st.Blocks)
		}
		if st.CompressedBlocks != 0 {
			t.Fatalf("CompressedBlocks = %d in an uncompressed corpus", st.CompressedBlocks)
		}
		if st.EventBytesStored != st.EventBytesRaw {
			t.Fatalf("stored %d != raw %d for raw blocks", st.EventBytesStored, st.EventBytesRaw)
		}
		d, err := OpenDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if st.Frames == 0 || st.Frames != d.intern.NumFrames() || st.Stacks != d.intern.NumStacks() {
			t.Fatalf("intern accounting %d frames, %d stacks; the index defines %d, %d",
				st.Frames, st.Stacks, d.intern.NumFrames(), d.intern.NumStacks())
		}
		index, err := os.Stat(filepath.Join(dir, indexFile))
		if err != nil {
			t.Fatal(err)
		}
		if st.StreamBytes == 0 || st.IndexBytes != index.Size() {
			t.Fatalf("file accounting missing: %+v", st)
		}
	})

	t.Run("compressed", func(t *testing.T) {
		dir := t.TempDir()
		// Use a repetitive stream so flate actually engages.
		rep := NewStream("rep")
		stk := rep.InternStackStrings("mod!F")
		for i := 0; i < 5000; i++ {
			rep.AppendEvent(Event{Type: Running, Time: Time(i * 10), Cost: 5, TID: 0, WTID: NoThread, Stack: stk})
		}
		rep.SetThread(0, "App", "T0")
		rep.Instances = append(rep.Instances, Instance{Scenario: "S1", TID: 0, Start: 0, End: 50001})
		if err := writeDirCompressed(NewCorpus(rep), dir); err != nil {
			t.Fatal(err)
		}
		st, err := CollectDirStats(dir)
		if err != nil {
			t.Fatal(err)
		}
		if st.CompressedBlocks == 0 {
			t.Fatal("no compressed blocks in a compressed repetitive corpus")
		}
		if st.EventBytesStored >= st.EventBytesRaw {
			t.Fatalf("stored %d >= raw %d despite compression", st.EventBytesStored, st.EventBytesRaw)
		}
	})
}

// TestV4StreamFileSmaller: a stream file holds the wire body's event
// blocks behind tables of corpus IDs in place of frame strings, so on a
// stream whose few frames repeat it is smaller than the TSCP body.
func TestV4StreamFileSmaller(t *testing.T) {
	s := NewStream("rep")
	stk := s.InternStackStrings("fs.sys!Read", "kernel!Wait", "App!Main")
	for i := 0; i < 10000; i++ {
		s.AppendEvent(Event{Type: Running, Time: Time(i * 10), Cost: 7, TID: 1, WTID: NoThread, Stack: stk})
	}
	s.SetThread(1, "App", "T1")
	s.Instances = append(s.Instances, Instance{Scenario: "S1", TID: 1, Start: 0, End: 100001})

	var wire bytes.Buffer
	if err := s.WriteBinary(&wire); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := NewCorpus(s).WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	v4, err := os.ReadFile(filepath.Join(dir, streamFileName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if len(v4) >= wire.Len() {
		t.Fatalf("stream file (%d bytes) not smaller than the wire body (%d bytes)", len(v4), wire.Len())
	}
	var u Upload
	if _, err := ReadUpload(bytes.NewReader(wire.Bytes()), &u); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(v4, u.blocks) {
		t.Fatal("the stream file does not end in the wire body's event blocks")
	}
}
