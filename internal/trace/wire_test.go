package trace_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"tracescope/internal/scenario"
	"tracescope/internal/trace"
	"tracescope/internal/trace/tracetest"
	"tracescope/internal/tracevet"
)

// wireStreams are the streams the wire tests encode: adversarial random
// streams and a catalogue fleet.
func wireStreams(t testing.TB) []*trace.Stream {
	t.Helper()
	streams := []*trace.Stream{
		tracetest.RandomStream(1, 3, 20),
		tracetest.RandomStream(2, 6, 700),
	}
	return append(streams, scenario.Generate(scenario.Config{Seed: 3, Streams: 4, Episodes: 2}).Streams...)
}

func wireBytes(t testing.TB, s *trace.Stream) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameStream reports how a differs from b, or "" when they are equal
// field for field, local frame and stack IDs included.
func sameStream(a, b *trace.Stream) string {
	switch {
	case a.ID != b.ID:
		return fmt.Sprintf("ID %q, want %q", a.ID, b.ID)
	case !reflect.DeepEqual(a.Events, b.Events) && (len(a.Events) > 0 || len(b.Events) > 0):
		return "events differ"
	case !reflect.DeepEqual(a.Instances, b.Instances) && (len(a.Instances) > 0 || len(b.Instances) > 0):
		return "instances differ"
	case !reflect.DeepEqual(a.Threads, b.Threads) && (len(a.Threads) > 0 || len(b.Threads) > 0):
		return "threads differ"
	case a.NumFrames() != b.NumFrames() || a.NumStacks() != b.NumStacks():
		return fmt.Sprintf("%d frames / %d stacks, want %d / %d", a.NumFrames(), a.NumStacks(), b.NumFrames(), b.NumStacks())
	}
	for i := 0; i < a.NumFrames(); i++ {
		if a.Frame(trace.FrameID(i)) != b.Frame(trace.FrameID(i)) {
			return fmt.Sprintf("frame %d differs", i)
		}
	}
	for i := 0; i < a.NumStacks(); i++ {
		if !reflect.DeepEqual(a.Stack(trace.StackID(i)), b.Stack(trace.StackID(i))) {
			return fmt.Sprintf("stack %d differs", i)
		}
	}
	return ""
}

// TestWireBlockLayouts: a body whose events are shorter blocks, or
// flate-compressed ones, decodes to the stream WriteBinary's does.
func TestWireBlockLayouts(t *testing.T) {
	for _, s := range wireStreams(t) {
		for _, layout := range []struct {
			rows     int
			compress bool
		}{{4096, false}, {7, false}, {1, false}, {4096, true}, {300, true}} {
			body, err := tracetest.WireBody(s, layout.rows, layout.compress)
			if err != nil {
				t.Fatal(err)
			}
			got, err := trace.ReadBinary(bytes.NewReader(body))
			if err != nil {
				t.Fatalf("%s, %d-row blocks, compressed %v: %v", s.ID, layout.rows, layout.compress, err)
			}
			if d := sameStream(got, s); d != "" {
				t.Fatalf("%s, %d-row blocks, compressed %v: %s", s.ID, layout.rows, layout.compress, d)
			}
			if layout.rows == 4096 && !layout.compress && !bytes.Equal(body, wireBytes(t, s)) {
				t.Fatalf("%s: WireBody at WriteBinary's layout is not WriteBinary's body", s.ID)
			}
		}
	}
}

// TestWireRejectsVersionOne: a body of the retired row encoding is
// refused by name, with what to do about it.
func TestWireRejectsVersionOne(t *testing.T) {
	body := wireBytes(t, tracetest.RandomStream(1, 3, 20))
	body[4], body[5] = 1, 0
	_, err := trace.ReadBinary(bytes.NewReader(body))
	if !errors.Is(err, trace.ErrBadFormat) {
		t.Fatalf("version-1 body: err = %v, want ErrBadFormat", err)
	}
	for _, want := range []string{"version 1", "tracegen -stream"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("version-1 error %q does not say %q", err, want)
		}
	}
}

// TestWireRejectsRepeatedFrame: a frame table must list distinct
// frames, because a stream file keeps one local ID per frame.
func TestWireRejectsRepeatedFrame(t *testing.T) {
	s := trace.NewStream("dup")
	s.InternStackStrings("a!x", "b!y")
	s.Instances = append(s.Instances, trace.Instance{Scenario: "S", TID: 1, End: 1})
	body := wireBytes(t, s)
	i := bytes.Index(body, []byte("b!y"))
	copy(body[i:], "a!x")
	if _, err := trace.ReadBinary(bytes.NewReader(body)); !errors.Is(err, trace.ErrBadFormat) ||
		!strings.Contains(err.Error(), "repeats frame") {
		t.Fatalf("repeated frame: err = %v", err)
	}
}

// appendAll appends every stream to a fresh corpus in dir, through
// Append when uploads is nil, else through AppendUpload of the bodies.
func appendAll(t testing.TB, dir string, streams []*trace.Stream, bodies [][]byte) {
	t.Helper()
	app, err := trace.OpenAppender(dir)
	if err != nil {
		t.Fatal(err)
	}
	var u trace.Upload
	for i, s := range streams {
		if bodies == nil {
			_, err = app.Append(s)
		} else if _, err = trace.ReadUpload(bytes.NewReader(bodies[i]), &u); err == nil {
			_, err = app.AppendUpload(&u)
		}
		if err != nil {
			t.Fatalf("stream %d: %v", i, err)
		}
	}
}

// dirBytes reads every file of dir.
func dirBytes(t testing.TB, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte)
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

// TestAppendUploadMatchesAppend: uploads of WriteBinary's bodies land a
// corpus byte-identical to Append's of the same streams — the blocks
// stored as received are the blocks Append encodes. Bodies in another
// block layout land their own blocks, read back as the same streams,
// and vet clean.
func TestAppendUploadMatchesAppend(t *testing.T) {
	streams := wireStreams(t)
	want := t.TempDir()
	appendAll(t, want, streams, nil)
	for _, layout := range []struct {
		name     string
		rows     int
		compress bool
	}{{"canonical", 4096, false}, {"short", 5, false}, {"compressed", 4096, true}} {
		t.Run(layout.name, func(t *testing.T) {
			bodies := make([][]byte, len(streams))
			for i, s := range streams {
				var err error
				if bodies[i], err = tracetest.WireBody(s, layout.rows, layout.compress); err != nil {
					t.Fatal(err)
				}
			}
			dir := t.TempDir()
			appendAll(t, dir, streams, bodies)
			got, wantFiles := dirBytes(t, dir), dirBytes(t, want)
			if layout.name == "canonical" && !reflect.DeepEqual(got, wantFiles) {
				for name := range wantFiles {
					if !bytes.Equal(got[name], wantFiles[name]) {
						t.Errorf("%s differs from Append's", name)
					}
				}
			}
			if layout.name != "canonical" && bytes.Equal(got["stream-00002.tsc4"], wantFiles["stream-00002.tsc4"]) {
				t.Errorf("a %s upload stored Append's blocks", layout.name)
			}
			d, err := trace.OpenDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for i, s := range streams {
				back, err := d.Stream(i)
				if err != nil {
					t.Fatal(err)
				}
				if diff := sameStream(back, s); diff != "" {
					t.Fatalf("stream %d reads back with %s", i, diff)
				}
			}
			rep, err := tracevet.VetDir(dir, tracevet.Options{})
			if err != nil {
				t.Fatal(err)
			}
			wantRep, err := tracevet.VetDir(want, tracevet.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rep.Diags, wantRep.Diags) {
				t.Errorf("vet of the uploaded corpus found %v, of Append's %v", rep.Diags, wantRep.Diags)
			}
		})
	}
}

// TestUploadSizeCountsEveryBuffer: Upload.Size is what keeps a large
// upload out of a pool, so it counts every buffer its Scratch holds —
// the thread map too, which a later smaller decode clears but does not
// shrink. A new Scratch field fails here until Scratch.retained counts it.
func TestUploadSizeCountsEveryBuffer(t *testing.T) {
	counted := []string{"raw", "events", "frames", "frameGlobals", "stackGlobals", "stacks", "arena",
		"stackEnds", "frameSet", "instances", "threads", "g2l", "dec", "mapPeak"}
	var fields []string
	typ := reflect.TypeOf(trace.Scratch{})
	for i := 0; i < typ.NumField(); i++ {
		fields = append(fields, typ.Field(i).Name)
	}
	if !reflect.DeepEqual(fields, counted) {
		t.Errorf("Scratch fields %v, counted %v: count the new field in Scratch.retained and list it here", fields, counted)
	}

	const nThreads = 10000
	wide := trace.NewStream("wide")
	for tid := trace.ThreadID(1); tid <= nThreads; tid++ {
		wide.SetThread(tid, "", "")
	}
	var u trace.Upload
	floor := nThreads * int(reflect.TypeOf(trace.ThreadID(0)).Size()+reflect.TypeOf(trace.ThreadInfo{}).Size())
	for _, st := range []*trace.Stream{wide, trace.NewStream("narrow")} {
		if _, err := trace.ReadUpload(bytes.NewReader(wireBytes(t, st)), &u); err != nil {
			t.Fatal(err)
		}
		if got := u.Size(); got < floor {
			t.Errorf("after %s, Size = %d, below the %d bytes %d thread entries hold", st.ID, got, floor, nThreads)
		}
	}
}

// TestAppendUploadWithoutStream: an upload whose decode failed holds
// nothing to append.
func TestAppendUploadWithoutStream(t *testing.T) {
	dir := t.TempDir()
	app, err := trace.OpenAppender(dir)
	if err != nil {
		t.Fatal(err)
	}
	var u trace.Upload
	if _, err := trace.ReadUpload(strings.NewReader("TSCP garbage"), &u); err == nil {
		t.Fatal("garbage decoded")
	}
	if _, err := app.AppendUpload(&u); err == nil {
		t.Fatal("appended an upload that failed to decode")
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("a refused upload left %d files", len(ents))
	}
}

// fmtStreamRecord is the index writer's fmt form, the reference its
// appending form is pinned to.
func fmtStreamRecord(seq int, m trace.StreamMeta) string {
	var b strings.Builder
	fmt.Fprintf(&b, "s %d %s %s %d %d %d\n",
		seq, strconv.Quote(m.File), strconv.Quote(m.ID),
		m.Events, int64(m.Duration), len(m.Instances))
	for _, in := range m.Instances {
		fmt.Fprintf(&b, "i %s %d %d %d\n",
			strconv.Quote(in.Scenario), in.TID, int64(in.Start), int64(in.End))
	}
	return b.String()
}

// TestStreamRecordMatchesFmt: the appender writes every index record
// byte for byte as the fmt form did — over a fleet holding every
// catalogue scenario, and over IDs and scenario names with quotes,
// newlines, backslashes, non-ASCII and invalid UTF-8.
func TestStreamRecordMatchesFmt(t *testing.T) {
	streams := scenario.Generate(scenario.Config{Seed: 1, Streams: 40, Episodes: 6}).Streams
	seen := make(map[string]bool)
	for _, s := range streams {
		for _, in := range s.Instances {
			seen[in.Scenario] = true
		}
	}
	for _, name := range scenario.All() {
		if !seen[name] {
			t.Fatalf("the fleet has no instance of catalogue scenario %s", name)
		}
	}
	for i, name := range []string{`a "quoted" id`, "new\nline", `back\slash`, "bad \xff\xfe utf-8", "ünïcode 名前", "", "\x00\t"} {
		s := tracetest.RandomStream(int64(i+1), 3, 10)
		s.ID = name
		if name != "" {
			s.Instances[0].Scenario = name
		}
		s.Instances[1].TID = -1
		streams = append(streams, s)
	}
	dir := t.TempDir()
	appendAll(t, dir, streams, nil)
	d, err := trace.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := "TSINDEX 4\n"
	for i, s := range streams {
		want += fmtStreamRecord(i, trace.StreamMeta{File: d.StreamMeta(i).File, ID: s.ID,
			Events: len(s.Events), Duration: s.Duration(), Instances: s.Instances})
	}
	got, err := os.ReadFile(filepath.Join(dir, "corpus.index"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("corpus.index differs from the fmt form:\n%q\nwant\n%q", got, want)
	}
}

// vetCleanStream is a small stream the daemon's admission gate passes:
// a wait woken by an unwait at its end, inside one instance.
func vetCleanStream() *trace.Stream {
	s := trace.NewStream("clean")
	w := s.InternStackStrings("kernel!Wait", "fs.sys!Read", "App!Main")
	u := s.InternStackStrings("kernel!Signal", "App!Worker")
	s.SetThread(1, "App", "Main")
	s.SetThread(2, "App", "Worker")
	s.AppendEvent(trace.Event{Type: trace.Wait, Time: 0, Cost: 10, TID: 1, WTID: trace.NoThread, Stack: w})
	s.AppendEvent(trace.Event{Type: trace.Running, Time: 2, Cost: 5, TID: 2, WTID: trace.NoThread, Stack: u})
	s.AppendEvent(trace.Event{Type: trace.Unwait, Time: 10, TID: 2, WTID: 1, Stack: u})
	s.Instances = append(s.Instances, trace.Instance{Scenario: "S", TID: 1, Start: 0, End: 12})
	return s
}

// FuzzReadBinary feeds arbitrary bytes to the wire decoder: it must
// never panic, every rejection must be ErrBadFormat, and anything it
// accepts must validate and end where the input does (one more byte and
// it is rejected). A body the daemon would take — it decodes and its
// vet finds nothing — appended as the daemon appends it, must read back
// as the stream it decoded to, into a corpus tracevet finds nothing in.
func FuzzReadBinary(f *testing.F) {
	streams := []*trace.Stream{vetCleanStream()}
	for seed := int64(1); seed <= 2; seed++ {
		streams = append(streams, tracetest.RandomStream(seed, 2+int(seed), 5*int(seed)))
	}
	for _, s := range streams {
		for _, layout := range []struct {
			rows     int
			compress bool
		}{{4096, false}, {2, false}, {4096, true}} {
			body, err := tracetest.WireBody(s, layout.rows, layout.compress)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(body)
		}
		f.Add(append(wireBytes(f, s), 0)) // one trailing byte
	}
	f.Add([]byte("TSCP"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := trace.ReadBinary(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, trace.ErrBadFormat) {
				t.Fatalf("rejection is not ErrBadFormat: %v", err)
			}
			return
		}
		if verr := s.Validate(); verr != nil {
			t.Fatalf("accepted invalid stream: %v", verr)
		}
		if _, err := trace.ReadBinary(bytes.NewReader(append(data[:len(data):len(data)], 0))); !errors.Is(err, trace.ErrBadFormat) {
			t.Fatalf("accepted the same stream with a trailing byte: %v", err)
		}
		if len(tracevet.VetStream(s, "upload", tracevet.Options{})) > 0 {
			return
		}

		dir := t.TempDir()
		appendAll(t, dir, []*trace.Stream{s}, [][]byte{data})
		d, err := trace.OpenDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		back, err := d.Stream(0)
		if err != nil {
			t.Fatal(err)
		}
		if diff := sameStream(back, s); diff != "" {
			t.Fatalf("the appended upload reads back with %s", diff)
		}
		rep, err := tracevet.VetDir(dir, tracevet.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Diags) > 0 {
			t.Fatalf("vet of the appended corpus: %v", rep.Diags)
		}
	})
}
