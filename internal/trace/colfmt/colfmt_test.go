package colfmt

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// encodeOne encodes a single block and returns its bytes.
func encodeOne(t *testing.T, e *Encoder, types []byte, cols [][]int64, compress bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := e.EncodeBlock(&buf, types, cols, compress); err != nil {
		t.Fatalf("EncodeBlock: %v", err)
	}
	return buf.Bytes()
}

func testRoundTrip(t *testing.T, compress bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	e := NewEncoder(5)
	d := NewDecoder(5)
	for _, rows := range []int{1, 7, 100, DefaultBlockRows, MaxBlockRows} {
		types := make([]byte, rows)
		cols := make([][]int64, 5)
		for c := range cols {
			cols[c] = make([]int64, rows)
		}
		for r := 0; r < rows; r++ {
			types[r] = byte(rng.Intn(4))
			for c := range cols {
				switch rng.Intn(4) {
				case 0:
					cols[c][r] = int64(rng.Intn(16)) - 8
				case 1:
					cols[c][r] = rng.Int63n(1 << 20)
				case 2:
					cols[c][r] = -rng.Int63n(1 << 40)
				default:
					cols[c][r] = int64(math.MinInt64) + rng.Int63()
				}
			}
		}
		data := encodeOne(t, e, types, cols, compress)
		gotRows, gotTypes, gotCols, n, err := d.DecodeBlock(data)
		if err != nil {
			t.Fatalf("rows=%d: DecodeBlock: %v", rows, err)
		}
		if n != len(data) {
			t.Fatalf("rows=%d: consumed %d of %d bytes", rows, n, len(data))
		}
		if gotRows != rows {
			t.Fatalf("rows=%d: decoded %d rows", rows, gotRows)
		}
		if !bytes.Equal(gotTypes, types) {
			t.Fatalf("rows=%d: type column mismatch", rows)
		}
		for c := range cols {
			for r := range cols[c] {
				if gotCols[c][r] != cols[c][r] {
					t.Fatalf("rows=%d: col %d row %d: got %d want %d",
						rows, c, r, gotCols[c][r], cols[c][r])
				}
			}
		}
	}
}

func TestRoundTrip(t *testing.T)           { testRoundTrip(t, false) }
func TestRoundTripCompressed(t *testing.T) { testRoundTrip(t, true) }

func TestMultipleBlocksSharedScratch(t *testing.T) {
	e := NewEncoder(2)
	d := NewDecoder(2)
	var buf bytes.Buffer
	want := [][2][]int64{
		{{1, 2, 3}, {-1, -2, -3}},
		{{9}, {0}},
		{{5, 5}, {1 << 50, -(1 << 50)}},
	}
	for _, blk := range want {
		types := make([]byte, len(blk[0]))
		if err := e.EncodeBlock(&buf, types, [][]int64{blk[0], blk[1]}, true); err != nil {
			t.Fatalf("EncodeBlock: %v", err)
		}
	}
	data := buf.Bytes()
	for i, blk := range want {
		rows, _, cols, n, err := d.DecodeBlock(data)
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		if rows != len(blk[0]) {
			t.Fatalf("block %d: rows %d want %d", i, rows, len(blk[0]))
		}
		for c := 0; c < 2; c++ {
			for r := 0; r < rows; r++ {
				if cols[c][r] != blk[c][r] {
					t.Fatalf("block %d col %d row %d: got %d want %d", i, c, r, cols[c][r], blk[c][r])
				}
			}
		}
		data = data[n:]
	}
	if len(data) != 0 {
		t.Fatalf("%d bytes left over", len(data))
	}
}

func TestEncodeBlockRejectsBadShapes(t *testing.T) {
	e := NewEncoder(2)
	var buf bytes.Buffer
	if err := e.EncodeBlock(&buf, nil, [][]int64{nil, nil}, false); err == nil {
		t.Fatal("empty block accepted")
	}
	big := make([]byte, MaxBlockRows+1)
	cols := [][]int64{make([]int64, MaxBlockRows+1), make([]int64, MaxBlockRows+1)}
	if err := e.EncodeBlock(&buf, big, cols, false); err == nil {
		t.Fatal("oversized block accepted")
	}
	if err := e.EncodeBlock(&buf, []byte{1}, [][]int64{{1}}, false); err == nil {
		t.Fatal("wrong column count accepted")
	}
	if err := e.EncodeBlock(&buf, []byte{1}, [][]int64{{1}, {1, 2}}, false); err == nil {
		t.Fatal("ragged column accepted")
	}
}

func TestDecodeBlockRejectsCorruption(t *testing.T) {
	e := NewEncoder(1)
	d := NewDecoder(1)
	good := encodeOne(t, e, []byte{1, 2}, [][]int64{{10, -10}}, false)
	// A compressed block claiming the largest raw payload its rows allow.
	forged := binary.AppendUvarint(nil, MaxBlockRows)
	forged = append(forged, flagCompressed)
	forged = binary.AppendUvarint(forged, MaxBlockRows*(1+binary.MaxVarintLen64))
	var small bytes.Buffer
	zw, _ := flate.NewWriter(&small, flate.BestSpeed)
	zw.Write([]byte{1, 2, 3})
	zw.Close()

	cases := map[string][]byte{
		"empty":            nil,
		"zero rows":        {0x00},
		"huge rows":        {0xff, 0xff, 0xff, 0xff, 0x7f},
		"missing flags":    good[:1],
		"unknown flags":    append(append([]byte{}, good[0], 0x80), good[2:]...),
		"truncated":        good[:len(good)-1],
		"trailing payload": func() []byte { b := append([]byte{}, good...); b[2]++; return append(b, 0) }(),
		// Two rows of one column hold 4 to 22 payload bytes.
		"payload short of rows":    {0x02, 0x00, 0x03, 1, 2, 20},
		"raw length short of rows": {0x02, flagCompressed, 0x03, 0x00},
		"raw length beyond rows":   {0x02, flagCompressed, 23, 0x00},
		// The declared raw size must not size the scratch.
		"forged, empty payload": binary.AppendUvarint(append([]byte{}, forged...), 0),
		"forged, short payload": append(binary.AppendUvarint(append([]byte{}, forged...), uint64(small.Len())), small.Bytes()...),
	}
	for name, data := range cases {
		if _, _, _, _, err := d.DecodeBlock(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
		if got := d.Retained(); got > 1<<10 {
			t.Errorf("%s: a %d-byte block grew the decoder's scratch to %d bytes", name, len(data), got)
		}
	}
}

func TestCompressedTinyBlockStaysRaw(t *testing.T) {
	// A one-row block inflates under flate; the encoder must fall back
	// to raw storage rather than grow the file.
	e := NewEncoder(1)
	d := NewDecoder(1)
	data := encodeOne(t, e, []byte{3}, [][]int64{{7}}, true)
	if data[1]&flagCompressed != 0 {
		t.Fatal("tiny block stored compressed")
	}
	if _, _, _, _, err := d.DecodeBlock(data); err != nil {
		t.Fatalf("DecodeBlock: %v", err)
	}
}

func TestCompressionShrinksRepetitiveBlocks(t *testing.T) {
	rows := DefaultBlockRows
	types := make([]byte, rows)
	col := make([]int64, rows)
	for i := range col {
		col[i] = 12345
	}
	e := NewEncoder(1)
	raw := encodeOne(t, e, types, [][]int64{col}, false)
	comp := encodeOne(t, e, types, [][]int64{col}, true)
	if len(comp) >= len(raw) {
		t.Fatalf("compressed block (%d bytes) not smaller than raw (%d bytes)", len(comp), len(raw))
	}
}

func BenchmarkDecodeBlock(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	rows := DefaultBlockRows
	types := make([]byte, rows)
	cols := make([][]int64, 5)
	for c := range cols {
		cols[c] = make([]int64, rows)
		for r := range cols[c] {
			cols[c][r] = rng.Int63n(1 << 16)
		}
	}
	var buf bytes.Buffer
	if err := NewEncoder(5).EncodeBlock(&buf, types, cols, false); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	d := NewDecoder(5)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, _, err := d.DecodeBlock(data); err != nil {
			b.Fatal(err)
		}
	}
}
