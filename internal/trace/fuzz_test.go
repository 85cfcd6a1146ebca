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

// writeIndex writes a corpus index for the given stream metadata.
func writeIndex(w io.Writer, metas []StreamMeta) error {
	if _, err := fmt.Fprintln(w, indexHeader); err != nil {
		return err
	}
	var b []byte
	for seq, m := range metas {
		b = appendStreamRecord(b, seq, m)
	}
	_, err := w.Write(b)
	return err
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

// FuzzWildcardMatch checks the matcher never panics, honours the
// universal pattern, and answers as splitWildcardMatch, the form that
// split the pattern on every call, does.
func FuzzWildcardMatch(f *testing.F) {
	f.Add("*.sys", "fs.sys")
	f.Add("a*b*c", "abc")
	f.Add("", "")
	f.Add("**", "x")
	f.Add("x**y", "xy")
	f.Add("ab*ba", "aba")
	f.Add("*a*", "bab")
	f.Add("a*b*", "ab")
	f.Fuzz(func(t *testing.T, pattern, module string) {
		filter := NewComponentFilter(pattern)
		filter.MatchModule(module) // must not panic
		if !NewComponentFilter("*").MatchModule(module) {
			t.Fatal("universal pattern rejected a module")
		}
		if got, want := wildcardMatch(pattern, module), splitWildcardMatch(pattern, module); got != want {
			t.Fatalf("wildcardMatch(%q, %q) = %v, want %v", pattern, module, got, want)
		}
	})
}

// splitWildcardMatch is wildcardMatch as it was: the reference the
// allocation-free form is held to.
func splitWildcardMatch(p, s string) bool {
	if p == "*" {
		return true
	}
	if !strings.ContainsRune(p, '*') {
		return p == s
	}
	parts := strings.Split(p, "*")
	if first := parts[0]; first != "" {
		if !strings.HasPrefix(s, first) {
			return false
		}
		s = s[len(first):]
	}
	last := parts[len(parts)-1]
	if last != "" {
		if !strings.HasSuffix(s, last) {
			return false
		}
		s = s[:len(s)-len(last)]
	}
	for _, mid := range parts[1 : len(parts)-1] {
		if mid == "" {
			continue
		}
		i := strings.Index(s, mid)
		if i < 0 {
			return false
		}
		s = s[i+len(mid):]
	}
	return true
}
