package tracevet

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"tracescope/internal/trace"
)

// FuzzVetStream: whatever trace.ReadBinary accepts, the structural
// rules must verify without panicking — the ingest admission gate runs
// exactly this pair on every untrusted upload.
func FuzzVetStream(f *testing.F) {
	var seed bytes.Buffer
	if err := goodStream("m1").WriteBinary(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte("TSCP garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := trace.ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		diags := VetStream(s, "fuzz", Options{})
		for _, d := range diags {
			if d.Message == "" || d.Analyzer == "" {
				t.Fatalf("malformed finding: %+v", d)
			}
		}
	})
}

// FuzzVetCorpus: VetDir must classify — never panic on — arbitrary
// index and stream-file bytes, and must agree with the loader, which
// reads the index through the same grammar: trace.OpenDir succeeds
// exactly when the report has no finding in corpus.index and no torn
// tail, and then both count the same streams. Determinism rides along:
// the same corrupted corpus must render the same report twice.
func FuzzVetCorpus(f *testing.F) {
	seedDir := f.TempDir()
	app, err := trace.OpenAppender(seedDir)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := app.Append(goodStream("m1")); err != nil {
		f.Fatal(err)
	}
	var index, stream []byte
	if index, err = os.ReadFile(filepath.Join(seedDir, "corpus.index")); err != nil {
		f.Fatal(err)
	}
	if stream, err = os.ReadFile(filepath.Join(seedDir, "stream-00000.tsc4")); err != nil {
		f.Fatal(err)
	}
	f.Add(index, stream)
	f.Add(bytes.ReplaceAll(index, []byte("\n"), []byte("\r\n")), stream)
	f.Add(bytes.Replace(index, []byte(`"m1" 4 `), []byte(`"m1" 268435457 `), 1), stream)
	f.Add(bytes.Replace(index, []byte(`"m1" 4 180 `), []byte(`"m1" 4 -1 `), 1), stream)
	f.Add(bytes.Replace(index, []byte("\ns 0 "), []byte("\ns 1 "), 1), stream)
	f.Add([]byte("TSINDEX 5\nf \"a!b\"\nk 0 1\n"), []byte("TSC4"))
	f.Add([]byte(""), []byte(""))
	f.Fuzz(func(t *testing.T, index, stream []byte) {
		dir := t.TempDir()
		writeAll := func(name string, data []byte) {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		writeAll("corpus.index", index)
		writeAll("stream-00000.tsc4", stream)
		rep, err := VetDir(dir, Options{})
		if err != nil {
			return
		}
		again, err := VetDir(dir, Options{Workers: 2})
		if err != nil {
			t.Fatalf("second VetDir failed: %v", err)
		}
		if renderReport(rep) != renderReport(again) {
			t.Fatalf("report not deterministic:\n%s\nvs\n%s", renderReport(rep), renderReport(again))
		}

		indexClean := rep.TailOffset < 0
		for _, d := range rep.Diags {
			if d.Pos.Filename == "corpus.index" {
				indexClean = false
			}
		}
		src, err := trace.OpenDir(dir)
		if (err == nil) != indexClean {
			t.Fatalf("OpenDir err = %v, but the report's index is clean: %v\n%s", err, indexClean, renderReport(rep))
		}
		if err == nil && rep.Streams != src.NumStreams() {
			t.Fatalf("report counts %d streams, OpenDir %d", rep.Streams, src.NumStreams())
		}
	})
}
