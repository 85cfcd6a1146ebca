package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tracescope/internal/trace/colfmt"
)

// FuzzReadBinary feeds arbitrary bytes to the binary decoder: it must
// never panic, every rejection must be ErrBadFormat, and anything it
// accepts must validate and end where the input does (one more byte and
// it is rejected).
func FuzzReadBinary(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		var buf bytes.Buffer
		if err := randomStream(seed).WriteBinary(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(append(buf.Bytes(), 0)) // one trailing byte
	}
	f.Add([]byte("TSCP"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("rejection is not ErrBadFormat: %v", err)
			}
			return
		}
		if verr := s.Validate(); verr != nil {
			t.Fatalf("accepted invalid stream: %v", verr)
		}
		if _, err := ReadBinary(bytes.NewReader(append(data[:len(data):len(data)], 0))); !errors.Is(err, ErrBadFormat) {
			t.Fatalf("accepted the same stream with a trailing byte: %v", err)
		}
	})
}

// writeIndex writes a corpus index for the given stream metadata.
func writeIndex(w io.Writer, metas []StreamMeta) error {
	if _, err := fmt.Fprintln(w, indexHeader); err != nil {
		return err
	}
	for seq, m := range metas {
		if err := writeStreamRecord(w, seq, m); err != nil {
			return err
		}
	}
	return nil
}

// addIndexSeeds seeds an index-text fuzzer: a well-formed index, the
// retired versions, torn and empty headers, an absurd instance count.
func addIndexSeeds(f *testing.F) {
	var good bytes.Buffer
	if err := writeIndex(&good, []StreamMeta{
		{File: "stream-00000.tsc4", ID: "m0", Events: 10, Duration: 500,
			Instances: []Instance{{Scenario: "S1", TID: 3, Start: 0, End: 100}}},
		{File: "stream-00001.tsc4", ID: "m1"},
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(good.String())
	f.Add("stream-00000.tscp\nstream-00001.tscp\n")
	f.Add("TSINDEX 2\ns \"a\" \"b\" 1 1 0\n")
	f.Add("TSINDEX 3\ns 0 \"a\" \"b\" 1 1 0\n")
	f.Add("TSINDEX 9\n")
	f.Add("TSINDEX 4\n")
	f.Add("TSINDEX 4")
	f.Add("TSINDEX 4\ns 0 \"a\" \"b\" 1 1 268435456\n")
	f.Add("")
}

// FuzzParseIndex feeds arbitrary text to the corpus.index parser: it
// must never panic or over-allocate, every rejection must be
// ErrBadFormat, and every accepted index must carry the one supported
// header and validated file entries (relative, confined, unique).
func FuzzParseIndex(f *testing.F) {
	addIndexSeeds(f)
	f.Fuzz(func(t *testing.T, data string) {
		metas, err := parseIndex(data)
		if err != nil {
			if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("rejection is not ErrBadFormat: %v", err)
			}
			return
		}
		if first, _, terminated := strings.Cut(data, "\n"); !terminated || strings.TrimSuffix(first, "\r") != indexHeader {
			t.Fatalf("accepted an index whose first line is %q, not the version-%d header", first, indexVersion)
		}
		seen := make(map[string]bool)
		for _, m := range metas {
			if err := checkIndexFile(m.File, seen); err != nil {
				t.Fatalf("accepted invalid file entry %q: %v", m.File, err)
			}
		}
	})
}

// FuzzReloadSplit holds Reload to OpenDir on arbitrary index text: cut
// at any record boundary, opening the head and reloading the rest must
// equal opening the whole — or be rejected where that is, leaving the
// source untouched (checkReloadSplit).
func FuzzReloadSplit(f *testing.F) {
	addIndexSeeds(f)
	f.Add("TSINDEX 4\ns 0 \"a\" \"x\" 1 1 0\n\ns 1 \"b\" \"x\" 1 1 1\ni \"S\" 1 0 9\n\n")
	f.Add("TSINDEX 4\r\ns 0 \"a\" \"x\" 1 1 0\r\ns 1 \"a\" \"x\" 1 1 0\r\n")
	f.Add("TSINDEX 4\ns 0 \"a\" \"x\" 1 1 0\ns 2 \"b\" \"x\" 1 1 0\n")
	f.Add("TSINDEX 4\ns 0 \"a\" \"x\" 1 1 0\ns 1 \"b\" \"x\" 1 1 1\ni \"S\" 1 0 9")
	dir := f.TempDir()
	if err := os.WriteFile(filepath.Join(dir, internFile), []byte(colfmt.InternMagic), 0o644); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, index string) {
		checkReloadSplit(t, dir, index)
	})
}

// FuzzReadV4Index lays arbitrary intern-table and stream-file bytes
// into a corpus directory under a well-formed v4 index: OpenDir and
// Stream must never panic, and anything they accept must validate. This
// covers the full v4 open path — index, corpus.intern, and the TSC4
// container — against mutually inconsistent inputs (a stream file
// referencing intern records that do not exist, and vice versa).
func FuzzReadV4Index(f *testing.F) {
	// Seed with a genuine corpus, then with torn variants.
	dir := f.TempDir()
	if err := NewCorpus(randomStream(1)).WriteDir(dir); err != nil {
		f.Fatal(err)
	}
	intern, err := os.ReadFile(filepath.Join(dir, internFile))
	if err != nil {
		f.Fatal(err)
	}
	stream, err := os.ReadFile(filepath.Join(dir, "stream-00000.tsc4"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(intern, stream)
	f.Add(intern[:len(intern)/2], stream)
	f.Add(intern, stream[:len(stream)/2])
	f.Add([]byte(nil), stream)
	f.Add([]byte("TSINTERN 1\n"), []byte("TSC4"))
	meta := func() StreamMeta {
		d, err := OpenDir(dir)
		if err != nil {
			f.Fatal(err)
		}
		return d.StreamMeta(0)
	}()
	f.Fuzz(func(t *testing.T, intern, stream []byte) {
		fdir := t.TempDir()
		var index bytes.Buffer
		m := meta
		if err := writeIndex(&index, []StreamMeta{m}); err != nil {
			t.Fatal(err)
		}
		for name, data := range map[string][]byte{
			indexFile:  index.Bytes(),
			internFile: intern,
			m.File:     stream,
		} {
			if err := os.WriteFile(filepath.Join(fdir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		d, err := OpenDir(fdir)
		if err != nil {
			return
		}
		s, err := d.Stream(0)
		if err != nil {
			if !errors.Is(err, ErrBadFormat) && !errors.Is(err, colfmt.ErrCorrupt) {
				t.Fatalf("decode rejection is not ErrBadFormat: %v", err)
			}
			return
		}
		if verr := s.Validate(); verr != nil {
			t.Fatalf("accepted invalid stream: %v", verr)
		}
	})
}

// FuzzWildcardMatch checks the matcher never panics and honours the
// universal pattern.
func FuzzWildcardMatch(f *testing.F) {
	f.Add("*.sys", "fs.sys")
	f.Add("a*b*c", "abc")
	f.Add("", "")
	f.Add("**", "x")
	f.Fuzz(func(t *testing.T, pattern, module string) {
		filter := NewComponentFilter(pattern)
		filter.MatchModule(module) // must not panic
		if !NewComponentFilter("*").MatchModule(module) {
			t.Fatal("universal pattern rejected a module")
		}
	})
}
