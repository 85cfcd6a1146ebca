package trace

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// statsCorpus writes a one-stream corpus whose instance table holds a
// scenario name found nowhere else in the stream file, and returns the
// directory with that file's path and bytes.
func statsCorpus(t *testing.T) (dir, path string, data []byte) {
	t.Helper()
	s := randomStream(3)
	s.Instances = append(s.Instances, Instance{Scenario: "TornScenario", TID: 0, Start: 0, End: 10})
	dir = t.TempDir()
	if err := NewCorpus(s).WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	path = filepath.Join(dir, streamFileName(0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return dir, path, data
}

// TestCollectDirStatsRefusesEveryTruncation: CollectDirStats reads a
// stream file to its last byte, so a file cut anywhere is ErrBadFormat.
func TestCollectDirStatsRefusesEveryTruncation(t *testing.T) {
	dir, path, data := statsCorpus(t)
	if _, err := CollectDirStats(dir); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(data); n++ {
		if err := os.WriteFile(path, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := CollectDirStats(dir); !errors.Is(err, ErrBadFormat) {
			t.Fatalf("stream file cut to %d of %d bytes: err = %v, want ErrBadFormat", n, len(data), err)
		}
	}
}

// TestCollectDirStatsRefusesWhatStreamIntoRefuses: the stats reader and
// the decoder read a stream file's header with the same code, so a
// header DirSource.StreamInto refuses, CollectDirStats refuses too.
func TestCollectDirStatsRefusesWhatStreamIntoRefuses(t *testing.T) {
	_, _, valid := statsCorpus(t)
	for _, tc := range []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }},
		{"dangling frame reference", func(b []byte) []byte {
			// The first frame-table entry follows magic(4) + version(2) +
			// ID string + table length.
			c := &byteCursor{data: b, off: 6}
			if _, err := c.string(); err != nil {
				t.Fatal(err)
			}
			if _, err := c.uvarint(); err != nil {
				t.Fatal(err)
			}
			b[c.off] = 0x7F // global frame 127 in a 5-frame table
			return b
		}},
		{"torn instance table", func(b []byte) []byte {
			at := bytes.Index(b, []byte("TornScenario"))
			if at < 0 {
				t.Fatal("scenario name not in the stream file")
			}
			return b[:at+len("TornScenario")]
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir, path, _ := statsCorpus(t)
			if err := os.WriteFile(path, tc.mutate(append([]byte(nil), valid...)), 0o644); err != nil {
				t.Fatal(err)
			}
			d, err := OpenDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			var sc Scratch
			if _, err := d.StreamInto(0, &sc); !errors.Is(err, ErrBadFormat) {
				t.Fatalf("StreamInto: err = %v, want ErrBadFormat", err)
			}
			if _, err := CollectDirStats(dir); !errors.Is(err, ErrBadFormat) {
				t.Fatalf("CollectDirStats: err = %v, want ErrBadFormat", err)
			}
		})
	}
}
