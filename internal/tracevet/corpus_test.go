package tracevet

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tracescope/internal/diag"
	"tracescope/internal/trace"
)

// buildCorpus writes an n-stream corpus through the Appender — the
// production on-disk shape the verifier is specified against.
func buildCorpus(t *testing.T, n int) string {
	t.Helper()
	dir := t.TempDir()
	app, err := trace.OpenAppender(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := app.Append(goodStream(fmt.Sprintf("machine-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func mustVetDir(t *testing.T, dir string, opts Options) *Report {
	t.Helper()
	rep, err := VetDir(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// hasRule reports whether any finding fired the named rule.
func hasRule(rep *Report, rule string) bool {
	for _, d := range rep.Diags {
		if d.Analyzer == rule {
			return true
		}
	}
	return false
}

// TestVetDirClean: a corpus as the Appender writes it vets clean, and so
// does every rewrite of its index the loader reads the same — trailing
// blank lines, and CRLF line ends — structurally and semantically.
func TestVetDirClean(t *testing.T) {
	for name, edit := range map[string]func(string) string{
		"as written":  func(s string) string { return s },
		"blank lines": func(s string) string { return s + "\n\n" },
		"CRLF":        func(s string) string { return strings.ReplaceAll(s, "\n", "\r\n") },
	} {
		dir := buildCorpus(t, 2)
		editIndex(t, dir, edit)
		for _, semantic := range []bool{false, true} {
			rep := mustVetDir(t, dir, Options{Semantic: semantic})
			if rep.Findings() != 0 || rep.Streams != 2 || rep.TailOffset != -1 || rep.Recoverable {
				t.Fatalf("%s (semantic %v): report %+v, findings %v", name, semantic, rep, rep.Diags)
			}
		}
	}
}

// TestVetDirIndexRecordFaults: a committed record the grammar refuses
// is one index-seq error at its own line, naming the fault, and the
// streams after it keep their positions.
func TestVetDirIndexRecordFaults(t *testing.T) {
	for _, tc := range []struct{ name, from, to, want string }{
		{"event count past the table cap", `"machine-00" 4 `, `"machine-00" 268435457 `, "268435457"},
		{"negative event count", `"machine-00" 4 `, `"machine-00" -4 `, "-4"},
		{"negative duration", `"machine-00" 4 180 `, `"machine-00" 4 -1 `, "negative duration -1"},
		{"unquoted frame", `f "drv.sys!block"`, `f drv.sys!block`, "bad quoted string"},
	} {
		dir := buildCorpus(t, 2)
		editIndex(t, dir, func(s string) string {
			if !strings.Contains(s, tc.from) {
				t.Fatalf("%s: test setup: %q not in the index:\n%s", tc.name, tc.from, s)
			}
			return strings.Replace(s, tc.from, tc.to, 1)
		})
		index := readFile(t, filepath.Join(dir, "corpus.index"))
		line := 1 + strings.Count(index[:strings.Index(index, tc.to)], "\n")
		rep := mustVetDir(t, dir, Options{})
		if len(rep.Diags) != 1 {
			t.Fatalf("%s: want one finding, got %v", tc.name, rep.Diags)
		}
		d := rep.Diags[0]
		if d.Analyzer != "index-seq" || d.Severity != diag.SevError || d.Pos.Line != line || !strings.Contains(d.Message, tc.want) {
			t.Fatalf("%s: want an index-seq error at line %d naming %q, got %v", tc.name, line, tc.want, d)
		}
		if rep.Recoverable || rep.TailOffset != -1 {
			t.Fatalf("%s: report = %+v", tc.name, rep)
		}
	}
}

// editIndex rewrites corpus.index through fn.
func editIndex(t *testing.T, dir string, fn func(string) string) {
	t.Helper()
	path := filepath.Join(dir, "corpus.index")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(fn(string(data))), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestVetDirIndexGap(t *testing.T) {
	dir := buildCorpus(t, 3)
	editIndex(t, dir, func(s string) string {
		return strings.Replace(s, "\ns 1 ", "\ns 2 ", 1)
	})
	rep := mustVetDir(t, dir, Options{})
	if !hasRule(rep, "index-seq") {
		t.Fatalf("sequence gap not caught: %v", rep.Diags)
	}
	if rep.Recoverable {
		t.Fatal("mid-index corruption classified recoverable")
	}
}

func TestVetDirIndexMetaMismatch(t *testing.T) {
	dir := buildCorpus(t, 2)
	editIndex(t, dir, func(s string) string {
		// Every fixture stream holds 4 events; lie about stream 1's count.
		return strings.Replace(s, `"machine-01" 4`, `"machine-01" 7`, 1)
	})
	rep := mustVetDir(t, dir, Options{})
	if !hasRule(rep, "index-meta") {
		t.Fatalf("metadata mismatch not caught: %v", rep.Diags)
	}
}

func TestVetDirDuplicateStreamID(t *testing.T) {
	dir := buildCorpus(t, 2)
	editIndex(t, dir, func(s string) string {
		return strings.Replace(s, `"machine-01"`, `"machine-00"`, 1)
	})
	rep := mustVetDir(t, dir, Options{})
	if !hasRule(rep, "stream-dup") {
		t.Fatalf("duplicate stream id not caught: %v", rep.Diags)
	}
}

// TestVetDirDanglingInternRef: intern records cut from a committed
// batch leave references to entries the index no longer defines — from
// the stream files when stack records go, and from the stack records
// when frame records go. Either is corruption, not a note.
func TestVetDirDanglingInternRef(t *testing.T) {
	for _, tag := range []string{"k ", "f "} {
		dir := buildCorpus(t, 2)
		editIndex(t, dir, func(s string) string {
			var kept []string
			for _, line := range strings.SplitAfter(s, "\n") {
				if !strings.HasPrefix(line, tag) {
					kept = append(kept, line)
				}
			}
			return strings.Join(kept, "")
		})
		rep := mustVetDir(t, dir, Options{})
		if !hasRule(rep, "intern-ref") {
			t.Fatalf("%q records cut: dangling intern reference not caught: %v", tag, rep.Diags)
		}
		if rep.Recoverable {
			t.Fatalf("%q records cut: dangling references classified recoverable", tag)
		}
	}
}

// TestVetDirTruncatedIndexTail: a torn final index record — the
// Appender crash shape — classifies recoverable, names the valid-prefix
// offset, and truncating there actually recovers the corpus.
func TestVetDirTruncatedIndexTail(t *testing.T) {
	dir := buildCorpus(t, 3)
	path := filepath.Join(dir, "corpus.index")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	rep := mustVetDir(t, dir, Options{})
	if rep.Findings() == 0 || !rep.Recoverable {
		t.Fatalf("torn tail not classified recoverable: %+v %v", rep, rep.Diags)
	}
	if !hasRule(rep, "tail-truncated") {
		t.Fatalf("tail-truncated did not fire: %v", rep.Diags)
	}
	if rep.TailOffset < 0 || rep.TailOffset >= int64(len(data)) {
		t.Fatalf("TailOffset = %d", rep.TailOffset)
	}

	// Recover as the report prescribes; the strict loader must accept
	// the result and the Appender must strict-grow from it.
	if err := os.Truncate(path, rep.TailOffset); err != nil {
		t.Fatal(err)
	}
	src, err := trace.OpenDir(dir)
	if err != nil {
		t.Fatalf("recovered corpus rejected by strict loader: %v", err)
	}
	before := src.NumStreams()
	app, err := trace.OpenAppender(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Append(goodStream("machine-99")); err != nil {
		t.Fatal(err)
	}
	grown, err := src.Reload()
	if err != nil {
		t.Fatalf("Reload after recovery: %v", err)
	}
	if grown != 1 || src.NumStreams() != before+1 {
		t.Fatalf("Reload grew %d to %d streams, want +1 to %d", grown, src.NumStreams(), before+1)
	}
	// The recovered-and-regrown corpus carries leftovers (the orphan
	// stream file of the truncated record) but nothing unrecoverable.
	rep = mustVetDir(t, dir, Options{})
	if hasErrors(rep.Diags) {
		t.Fatalf("recovered corpus has errors: %v", rep.Diags)
	}
}

// TestVetDirTornHeader: a first append torn inside the index header —
// the crash shape of a daemon's first upload — committed nothing. It
// classifies recoverable at offset 0, and after truncating there the
// Appender starts the corpus over, leftovers of the crashed append and
// all.
func TestVetDirTornHeader(t *testing.T) {
	for name, torn := range map[string]string{"empty": "", "partial": "TSIND", "unterminated": "TSINDEX 5"} {
		t.Run(name, func(t *testing.T) {
			dir := buildCorpus(t, 1)
			path := filepath.Join(dir, "corpus.index")
			if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
				t.Fatal(err)
			}
			rep := mustVetDir(t, dir, Options{})
			if !rep.Recoverable || !hasRule(rep, "tail-truncated") || hasRule(rep, "index-seq") {
				t.Fatalf("torn header not a recoverable tail-truncated note: %+v %v", rep, rep.Diags)
			}
			if rep.TailOffset != 0 {
				t.Fatalf("TailOffset = %d, want 0", rep.TailOffset)
			}

			if err := os.Truncate(path, rep.TailOffset); err != nil {
				t.Fatal(err)
			}
			app, err := trace.OpenAppender(dir)
			if err != nil {
				t.Fatalf("OpenAppender over the recovered directory: %v", err)
			}
			if _, err := app.Append(goodStream("machine-99")); err != nil {
				t.Fatal(err)
			}
			src, err := trace.OpenDir(dir)
			if err != nil {
				t.Fatalf("recovered corpus rejected by strict loader: %v", err)
			}
			if src.NumStreams() != 1 {
				t.Fatalf("recovered corpus has %d streams, want 1", src.NumStreams())
			}
			rep = mustVetDir(t, dir, Options{Semantic: true})
			if rep.Findings() != 0 || rep.Streams != 1 {
				t.Fatalf("recovered corpus: %d streams, findings %v", rep.Streams, rep.Diags)
			}
		})
	}
}

// TestVetDirUnsupportedVersion: an index of any version but the one
// this build reads is exactly one index-seq error naming what was found
// — no other rule may interpret the directory (its stream files would
// all read as orphans that are "safe to delete").
func TestVetDirUnsupportedVersion(t *testing.T) {
	for _, header := range []string{"TSINDEX 2", "TSINDEX 3", "TSINDEX 4", "TSINDEX 6", "stream-00000.tscp"} {
		dir := buildCorpus(t, 2)
		editIndex(t, dir, func(s string) string {
			return header + strings.TrimPrefix(s, "TSINDEX 5")
		})
		rep := mustVetDir(t, dir, Options{Semantic: true})
		if len(rep.Diags) != 1 || rep.Diags[0].Analyzer != "index-seq" || rep.Diags[0].Severity != diag.SevError {
			t.Fatalf("header %q: want exactly one index-seq error, got %v", header, rep.Diags)
		}
		for _, want := range []string{fmt.Sprintf("%q", header), `"TSINDEX 5"`, "tracegen"} {
			if !strings.Contains(rep.Diags[0].Message, want) {
				t.Fatalf("header %q: message %q does not mention %s", header, rep.Diags[0].Message, want)
			}
		}
		if rep.Recoverable || rep.Streams != 0 {
			t.Fatalf("header %q: report = %+v", header, rep)
		}
	}
}

// TestVetDirIgnoresForeignStreamNames: only a name the Appender could
// have written is an orphan stream file "safe to delete"; any other file
// in the directory is not the verifier's to judge.
func TestVetDirIgnoresForeignStreamNames(t *testing.T) {
	dir := buildCorpus(t, 2)
	for _, name := range []string{"stream-notes.tsc4", "stream-1.tsc4", "stream-00002.tsc4.bak"} {
		writeFile(t, filepath.Join(dir, name), "not a stream")
	}
	if rep := mustVetDir(t, dir, Options{Semantic: true}); len(rep.Diags) != 0 {
		t.Fatalf("foreign files judged: %v", rep.Diags)
	}
}

// TestVetDirHalfWrittenStreamFile: a stream file the index never
// committed — the other Appender crash shape — is an orphan note.
func TestVetDirHalfWrittenStreamFile(t *testing.T) {
	dir := buildCorpus(t, 2)
	whole, err := os.ReadFile(filepath.Join(dir, "stream-00001.tsc4"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "stream-00002.tsc4"), whole[:len(whole)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	rep := mustVetDir(t, dir, Options{})
	if !rep.Recoverable || !hasRule(rep, "tail-truncated") {
		t.Fatalf("orphan half-written stream not a recoverable note: %+v %v", rep, rep.Diags)
	}
	// An *indexed* stream can never be half-written by a crash (its
	// index record commits after the file): that is corruption.
	if err := os.WriteFile(filepath.Join(dir, "stream-00001.tsc4"), whole[:len(whole)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	rep = mustVetDir(t, dir, Options{})
	if rep.Recoverable || !hasRule(rep, "stream-decode") {
		t.Fatalf("indexed half-written stream not an error: %+v %v", rep, rep.Diags)
	}
}

// TestVetDirTruncatedInternTail: a batch torn after its intern records
// — they landed, its stream record did not — is recoverable at the
// batch's start, and truncating there leaves a corpus that vets clean.
func TestVetDirTruncatedInternTail(t *testing.T) {
	dir := buildCorpus(t, 1)
	path := filepath.Join(dir, "corpus.index")
	committed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	editIndex(t, dir, func(s string) string { return s + "f \"new.sys!block\"\nk 2 0\n" })
	rep := mustVetDir(t, dir, Options{})
	if !rep.Recoverable || !hasRule(rep, "tail-truncated") {
		t.Fatalf("torn intern tail not recoverable: %+v %v", rep, rep.Diags)
	}
	if rep.TailOffset != int64(len(committed)) {
		t.Fatalf("TailOffset = %d, want the %d committed bytes", rep.TailOffset, len(committed))
	}
	if err := os.Truncate(path, rep.TailOffset); err != nil {
		t.Fatal(err)
	}
	if rep := mustVetDir(t, dir, Options{Semantic: true}); rep.Findings() != 0 {
		t.Fatalf("recovered corpus has findings: %v", rep.Diags)
	}
}

// TestVetDirEveryCutRecovers: wherever a log is cut — inside a line, in
// a batch's intern records, between a stream record and its instances,
// or on a batch boundary — VetDir reports notes only, names the end of
// the last whole batch (-1 on a boundary), and truncating there opens
// exactly the whole batches' streams. An Appender over the recovered
// log then appends the rest into the uncut corpus, byte for byte.
func TestVetDirEveryCutRecovers(t *testing.T) {
	streams := []*trace.Stream{
		driverStream("m0", "a.sys"), driverStream("m1", "b.sys"),
		driverStream("m2", "a.sys"), driverStream("m3", "c.sys"),
	}
	whole := t.TempDir()
	app, err := trace.OpenAppender(whole)
	if err != nil {
		t.Fatal(err)
	}
	ends := []int{len("TSINDEX 5\n")} // ends[k]: the log's length after k batches
	for _, s := range streams {
		if _, err := app.Append(s); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, len(readFile(t, filepath.Join(whole, "corpus.index"))))
	}
	want := dirFiles(t, whole)
	index := want["corpus.index"]
	if !strings.HasPrefix(index[ends[1]:], "f ") || !strings.HasPrefix(index[ends[3]:], "f ") {
		t.Fatalf("test setup: later batches bring no frames:\n%s", index)
	}

	for cut := ends[0]; cut < len(index); cut++ {
		k := 0 // whole batches before cut
		for k+1 < len(ends) && ends[k+1] <= cut {
			k++
		}
		wantTail := int64(ends[k])
		if cut == ends[k] {
			wantTail = -1
		}
		dir := t.TempDir()
		for name, data := range want {
			writeFile(t, filepath.Join(dir, name), data)
		}
		writeFile(t, filepath.Join(dir, "corpus.index"), index[:cut])

		rep := mustVetDir(t, dir, Options{})
		if hasErrors(rep.Diags) || !rep.Recoverable || rep.TailOffset != wantTail {
			t.Fatalf("cut at %d: Recoverable %v, TailOffset %d (want %d), findings %v",
				cut, rep.Recoverable, rep.TailOffset, wantTail, rep.Diags)
		}
		if err := os.Truncate(filepath.Join(dir, "corpus.index"), int64(ends[k])); err != nil {
			t.Fatal(err)
		}
		src, err := trace.OpenDir(dir)
		if err != nil || src.NumStreams() != k {
			t.Fatalf("cut at %d: recovered corpus opens with %v, want %d streams", cut, err, k)
		}
		app, err := trace.OpenAppender(dir)
		if err != nil {
			t.Fatalf("cut at %d: OpenAppender: %v", cut, err)
		}
		for _, s := range streams[k:] {
			if _, err := app.Append(s); err != nil {
				t.Fatalf("cut at %d: %v", cut, err)
			}
		}
		if got := dirFiles(t, dir); !reflect.DeepEqual(got, want) {
			t.Fatalf("cut at %d: re-appended corpus differs from the uncut one:\n%s\nwant\n%s", cut, got["corpus.index"], index)
		}
	}
}

// TestVetDirCleanAfterFailedAppend: an append that fails after
// interning its stream's new frames — a directory sits at its stream
// file's name — logs none of them. The next append, of a stream without
// those frames, leaves no record of them, and the corpus vets clean.
func TestVetDirCleanAfterFailedAppend(t *testing.T) {
	dir := t.TempDir()
	app, err := trace.OpenAppender(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Append(driverStream("m0", "a.sys")); err != nil {
		t.Fatal(err)
	}
	blocker := filepath.Join(dir, "stream-00001.tsc4")
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := app.Append(driverStream("m1", "lost.sys")); err == nil {
		t.Fatal("Append over a directory at the stream file's name succeeded")
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	if idx, err := app.Append(driverStream("m2", "a.sys")); idx != 1 || err != nil {
		t.Fatalf("Append after the failed one = %d, %v; want stream 1", idx, err)
	}
	if index := readFile(t, filepath.Join(dir, "corpus.index")); strings.Contains(index, "lost.sys") {
		t.Fatalf("the log holds the failed append's frame:\n%s", index)
	}
	rep := mustVetDir(t, dir, Options{Semantic: true})
	if rep.Findings() != 0 || rep.Streams != 2 {
		t.Fatalf("%d streams, findings %v", rep.Streams, rep.Diags)
	}
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func writeFile(t *testing.T, path, data string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
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
		files[e.Name()] = readFile(t, filepath.Join(dir, e.Name()))
	}
	return files
}

// TestVetDirMissingStreamFile: an indexed file that is gone is
// corruption — the crash ordering cannot produce it.
func TestVetDirMissingStreamFile(t *testing.T) {
	dir := buildCorpus(t, 2)
	if err := os.Remove(filepath.Join(dir, "stream-00000.tsc4")); err != nil {
		t.Fatal(err)
	}
	rep := mustVetDir(t, dir, Options{})
	if rep.Recoverable || !hasRule(rep, "stream-decode") {
		t.Fatalf("missing indexed file not an error: %+v %v", rep, rep.Diags)
	}
}

// TestVetDirDeterministicAcrossWorkers: on-disk reports are
// byte-identical at any worker count, corrupted corpora included.
func TestVetDirDeterministicAcrossWorkers(t *testing.T) {
	dir := buildCorpus(t, 6)
	editIndex(t, dir, func(s string) string {
		return strings.Replace(s, "\ns 3 ", "\ns 5 ", 1)
	})
	want := renderReport(mustVetDir(t, dir, Options{Workers: 1}))
	for _, w := range []int{2, 4, 8} {
		if got := renderReport(mustVetDir(t, dir, Options{Workers: w})); got != want {
			t.Fatalf("workers=%d report differs:\n%s\nvs workers=1:\n%s", w, got, want)
		}
	}
}

// TestVetDirRuleSeverities: every corpus-level rule that fires via
// VetDir reports the severity the recoverability contract expects.
func TestVetDirRuleSeverities(t *testing.T) {
	dir := buildCorpus(t, 2)
	path := filepath.Join(dir, "corpus.index")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	rep := mustVetDir(t, dir, Options{})
	for _, d := range rep.Diags {
		if d.Analyzer == "tail-truncated" && d.Severity != diag.SevNote {
			t.Fatalf("tail-truncated severity = %q, want note", d.Severity)
		}
	}
}
