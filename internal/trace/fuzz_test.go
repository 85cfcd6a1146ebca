package trace

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tracescope/internal/trace/colfmt"
)

// addIndexSeeds seeds an index-text fuzzer: a well-formed index with
// intern records, the retired versions, torn and empty headers, a torn
// batch, a stack naming an undefined frame, an absurd instance count.
func addIndexSeeds(f *testing.F) {
	dir := f.TempDir()
	if err := NewCorpus(randomStream(1), newFrameStream("seed.sys")).WriteDir(dir); err != nil {
		f.Fatal(err)
	}
	good, err := os.ReadFile(filepath.Join(dir, indexFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(good))
	f.Add("stream-00000.tscp\nstream-00001.tscp\n")
	f.Add("TSINDEX 2\ns \"a\" \"b\" 1 1 0\n")
	f.Add("TSINDEX 3\ns 0 \"a\" \"b\" 1 1 0\n")
	f.Add("TSINDEX 4\ns 0 \"a\" \"b\" 1 1 0\n")
	f.Add("TSINDEX 5\n")
	f.Add("TSINDEX 5")
	f.Add("TSINDEX 5\r")
	f.Add("TSINDEX 5\nf \"a!b\"\nk 0 0\n")
	f.Add("TSINDEX 5\nf \"a!b\"\nk 1\ns 0 \"a\" 1 1 0\n")
	f.Add("TSINDEX 5\ns 0 \"a\" 1 1 268435456\n")
	f.Add("TSINDEX 5\ns 0 \"a\" 1 -1 1\ni \"S\" 1 0 9\n")
	f.Add("")
}

// FuzzParseIndex feeds arbitrary text to the corpus.index parser: it
// must never panic or over-allocate, every rejection must be
// ErrBadFormat, and every accepted index must carry the one supported
// header, name each stream's file by its position, hold only records
// the field rules allow, and define every frame a stack names before
// the stack.
func FuzzParseIndex(f *testing.F) {
	addIndexSeeds(f)
	f.Fuzz(func(t *testing.T, data string) {
		metas, it, err := parseIndex(data)
		if err != nil {
			if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("rejection is not ErrBadFormat: %v", err)
			}
			if found := fmt.Sprintf("found index version %d ", indexVersion); strings.Contains(err.Error(), found) {
				t.Fatalf("rejection names the supported version as the one found: %v", err)
			}
			return
		}
		if first, _, terminated := strings.Cut(data, "\n"); !terminated || strings.TrimSuffix(first, "\r") != indexHeader {
			t.Fatalf("accepted an index whose first line is %q, not the version-%d header", first, indexVersion)
		}
		// The record rules, written out here rather than through
		// checkMeta, which shares the parser's rule set.
		for i, m := range metas {
			if m.File != streamFileName(i) {
				t.Fatalf("stream %d reads from %q", i, m.File)
			}
			if m.Events < 0 || m.Events > maxTableLen || m.Duration < 0 {
				t.Fatalf("stream %d: accepted %d events over duration %d", i, m.Events, m.Duration)
			}
			for j, in := range m.Instances {
				if in.Scenario == "" || in.Start < 0 || in.End < in.Start {
					t.Fatalf("stream %d: accepted instance %d %+v", i, j, in)
				}
			}
		}
		for i, st := range it.stacks {
			if len(st) == 0 {
				t.Fatalf("accepted empty stack %d", i)
			}
			for _, f := range st {
				if f < 0 || int(f) >= it.NumFrames() {
					t.Fatalf("stack %d names frame %d of %d", i, f, it.NumFrames())
				}
			}
		}
	})
}

// FuzzReloadSplit holds Reload to OpenDir on arbitrary index text: cut
// at any batch boundary, opening the head and reloading the rest must
// equal opening the whole — or be rejected where that is, leaving the
// source untouched (checkReloadSplit).
func FuzzReloadSplit(f *testing.F) {
	addIndexSeeds(f)
	f.Add("TSINDEX 5\ns 0 \"x\" 1 1 0\n\ns 1 \"x\" 1 1 1\ni \"S\" 1 0 9\n\n")
	f.Add("TSINDEX 5\r\nf \"a!b\"\r\nk 0\r\ns 0 \"x\" 1 1 0\r\nk 0 0\r\n\r\ns 1 \"x\" 1 1 0\r\n")
	f.Add("TSINDEX 5\ns 0 \"x\" 1 1 0\ns 2 \"x\" 1 1 0\n")
	f.Add("TSINDEX 5\ns 0 \"x\" 1 1 0\ns 1 \"x\" 1 1 1\ni \"S\" 1 0 9")
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, index string) {
		checkReloadSplit(t, dir, index)
	})
}

// FuzzReadV4Index lays arbitrary index and stream-file bytes into a
// corpus directory: OpenDir and Stream must never panic, and anything
// they accept must validate. This covers the full open path — the index
// with its intern records, and the TSC4 container — against mutually
// inconsistent inputs (a stream file referencing intern records the
// index does not hold, and vice versa).
func FuzzReadV4Index(f *testing.F) {
	// Seed with a genuine corpus, then with torn variants.
	dir := f.TempDir()
	if err := NewCorpus(randomStream(1)).WriteDir(dir); err != nil {
		f.Fatal(err)
	}
	index, err := os.ReadFile(filepath.Join(dir, indexFile))
	if err != nil {
		f.Fatal(err)
	}
	stream, err := os.ReadFile(filepath.Join(dir, streamFileName(0)))
	if err != nil {
		f.Fatal(err)
	}
	// The index with its last frame record cut: the stream names a frame
	// the index no longer defines.
	last := bytes.LastIndex(index, []byte("\nf "))
	lost := append(index[:last:last], index[last+1+bytes.IndexByte(index[last+1:], '\n'):]...)
	f.Add(index, stream)
	f.Add(lost, stream)
	f.Add(index, stream[:len(stream)/2])
	f.Add([]byte(nil), stream)
	f.Add([]byte(indexHeader+"\n"), []byte("TSC4"))
	f.Fuzz(func(t *testing.T, index, stream []byte) {
		fdir := t.TempDir()
		for name, data := range map[string][]byte{
			indexFile:         index,
			streamFileName(0): stream,
		} {
			if err := os.WriteFile(filepath.Join(fdir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		d, err := OpenDir(fdir)
		if err != nil || d.NumStreams() == 0 {
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
