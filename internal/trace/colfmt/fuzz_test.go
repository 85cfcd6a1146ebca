package colfmt

import (
	"bytes"
	"testing"
)

// FuzzColBlockDecode throws arbitrary bytes at the block decoder: it
// must either decode cleanly or fail with an error, never panic or
// over-allocate, and anything it does decode must re-encode to a block
// that decodes to identical columns.
func FuzzColBlockDecode(f *testing.F) {
	e := NewEncoder(5)
	seed := func(types []byte, cols [][]int64, compress bool) {
		var buf bytes.Buffer
		if err := e.EncodeBlock(&buf, types, cols, compress); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	seed([]byte{0}, [][]int64{{0}, {0}, {0}, {0}, {0}}, false)
	seed([]byte{1, 2, 3}, [][]int64{{1, -1, 5}, {9, 9, 9}, {0, 0, 1}, {-1, -1, -1}, {1 << 40, 2, 3}}, false)
	big := make([]byte, DefaultBlockRows)
	cols := make([][]int64, 5)
	for c := range cols {
		cols[c] = make([]int64, DefaultBlockRows)
		for r := range cols[c] {
			cols[c][r] = int64(c * r)
		}
	}
	seed(big, cols, true)
	f.Add([]byte{0xff, 0x01, 0x00})
	// A compressed block claiming the largest raw payload its rows allow
	// over an empty payload.
	f.Add([]byte{0x80, 0x80, 0x04, flagCompressed, 0x80, 0x80, 0xcc, 0x01, 0x00})
	f.Add([]byte("TSINTERN 1\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(5)
		rows, types, cols, n, err := d.DecodeBlock(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if rows != len(types) {
			t.Fatalf("rows %d but %d type bytes", rows, len(types))
		}
		// Re-encode and decode again: the columns must survive.
		var buf bytes.Buffer
		if err := NewEncoder(5).EncodeBlock(&buf, types, cols, false); err != nil {
			t.Fatalf("re-encode of decoded block: %v", err)
		}
		rows2, types2, cols2, _, err := NewDecoder(5).DecodeBlock(buf.Bytes())
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if rows2 != rows || !bytes.Equal(types2, types) {
			t.Fatal("re-decoded block differs")
		}
		for c := range cols {
			for r := 0; r < rows; r++ {
				if cols2[c][r] != cols[c][r] {
					t.Fatalf("col %d row %d: %d != %d", c, r, cols2[c][r], cols[c][r])
				}
			}
		}
	})
}

// FuzzInternRecords throws arbitrary bytes at the intern-record parser.
func FuzzInternRecords(f *testing.F) {
	var buf bytes.Buffer
	if err := AppendFrame(&buf, "frame"); err != nil {
		f.Fatal(err)
	}
	if err := AppendStack(&buf, []uint32{0}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes(), 0)
	f.Add([]byte{'S', 0x01, 0x00}, 1)
	f.Fuzz(func(t *testing.T, data []byte, base int) {
		if base < 0 || base > 1<<20 {
			return
		}
		frames := 0
		err := ReadInternRecords(data, base,
			func(string) error { frames++; return nil },
			func(fs []uint32) error {
				for _, id := range fs {
					if int(id) >= base+frames {
						t.Fatalf("parser passed out-of-range frame id %d", id)
					}
				}
				return nil
			})
		_ = err
	})
}
