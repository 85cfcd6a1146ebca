// Package colfmt implements the column-oriented block codec behind
// corpus format v4 (DESIGN.md §10).
//
// A v4 stream file stores its event sequence as a run of blocks. Each
// block holds up to MaxBlockRows rows transposed into columns: one
// byte-per-row type column followed by a fixed number of zig-zag varint
// columns (time delta, cost, thread, wake target, stack in the v4
// schema). Columnar layout keeps same-shaped values adjacent, which
// both shrinks the varints (deltas cluster near zero) and lets the
// decoder run one tight loop per column over a []byte with no
// per-event interface calls or allocations.
//
// Block wire format:
//
//	uvarint rows                    1 ≤ rows ≤ MaxBlockRows
//	byte    flags                   bit0 = payload is flate-compressed
//	[uvarint rawLen]                present iff compressed: payload size
//	                                after decompression
//	uvarint payloadLen              stored payload size
//	payload                         rows type bytes, then ncols columns
//	                                of rows zig-zag varints each
//
// The codec is symmetric and allocation-free in steady state: both
// Encoder and Decoder retain their scratch buffers (including the flate
// state, reset per block via flate.Resetter) across calls.
package colfmt

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

const (
	// DefaultBlockRows is the row count encoders target per block: large
	// enough to amortise the header and give flate a useful window,
	// small enough that a decoder's column scratch stays cache-friendly.
	DefaultBlockRows = 4096
	// MaxBlockRows bounds the row count accepted from an untrusted block
	// header, so a corrupt prefix cannot demand a huge allocation.
	MaxBlockRows = 1 << 16
	// maxPayload bounds the stored and decompressed payload sizes read
	// from untrusted headers.
	maxPayload = 1 << 26
)

// flagCompressed marks a block whose payload is flate-compressed.
const flagCompressed = 0x01

// ErrCorrupt reports a malformed block.
var ErrCorrupt = errors.New("colfmt: corrupt input")

// An Encoder writes columnar blocks. It retains its payload and flate
// scratch across EncodeBlock calls; one Encoder must not be used
// concurrently.
type Encoder struct {
	ncols   int
	payload []byte
	comp    *flate.Writer
	cbuf    bytes.Buffer
}

// NewEncoder returns an encoder for blocks of ncols varint columns
// (plus the implicit leading type-byte column).
func NewEncoder(ncols int) *Encoder {
	return &Encoder{ncols: ncols}
}

// EncodeBlock writes one block holding len(types) rows. Every column in
// cols must have exactly len(types) values, len(cols) must equal the
// encoder's column count, and the row count must be in
// [1, MaxBlockRows]. With compress set the payload is flate-compressed
// when that actually saves bytes (tiny blocks can inflate, in which
// case the block is stored raw).
func (e *Encoder) EncodeBlock(w io.Writer, types []byte, cols [][]int64, compress bool) error {
	rows := len(types)
	if rows == 0 || rows > MaxBlockRows {
		return fmt.Errorf("colfmt: block row count %d out of range [1, %d]", rows, MaxBlockRows)
	}
	if len(cols) != e.ncols {
		return fmt.Errorf("colfmt: got %d columns, encoder configured for %d", len(cols), e.ncols)
	}
	for i, c := range cols {
		if len(c) != rows {
			return fmt.Errorf("colfmt: column %d has %d values for %d rows", i, len(c), rows)
		}
	}

	e.payload = append(e.payload[:0], types...)
	var vbuf [binary.MaxVarintLen64]byte
	for _, c := range cols {
		for _, v := range c {
			n := binary.PutVarint(vbuf[:], v)
			e.payload = append(e.payload, vbuf[:n]...)
		}
	}

	flags := byte(0)
	stored := e.payload
	if compress {
		if err := e.deflate(); err != nil {
			return err
		}
		if e.cbuf.Len() < len(e.payload) {
			flags |= flagCompressed
			stored = e.cbuf.Bytes()
		}
	}

	var head [3*binary.MaxVarintLen64 + 1]byte
	n := binary.PutUvarint(head[:], uint64(rows))
	head[n] = flags
	n++
	if flags&flagCompressed != 0 {
		n += binary.PutUvarint(head[n:], uint64(len(e.payload)))
	}
	n += binary.PutUvarint(head[n:], uint64(len(stored)))
	if _, err := w.Write(head[:n]); err != nil {
		return err
	}
	_, err := w.Write(stored)
	return err
}

// deflate compresses e.payload into e.cbuf, reusing the flate state.
func (e *Encoder) deflate() error {
	e.cbuf.Reset()
	if e.comp == nil {
		zw, err := flate.NewWriter(&e.cbuf, flate.BestSpeed)
		if err != nil {
			return err
		}
		e.comp = zw
	} else {
		e.comp.Reset(&e.cbuf)
	}
	if _, err := e.comp.Write(e.payload); err != nil {
		return err
	}
	return e.comp.Close()
}

// A Decoder reads columnar blocks. The slices returned by DecodeBlock
// alias the decoder's scratch and stay valid only until the next call;
// one Decoder must not be used concurrently.
type Decoder struct {
	ncols int
	types []byte
	cols  [][]int64
	raw   []byte
	fr    io.ReadCloser
}

// NewDecoder returns a decoder for blocks of ncols varint columns.
func NewDecoder(ncols int) *Decoder {
	d := &Decoder{ncols: ncols, cols: make([][]int64, ncols)}
	return d
}

// Retained returns the bytes d's scratch buffers hold.
func (d *Decoder) Retained() int {
	n := cap(d.types) + cap(d.raw)
	for _, c := range d.cols {
		n += 8 * cap(c)
	}
	return n
}

// DecodeBlock decodes the block at the front of data, returning the row
// count, the type column, the varint columns, and the number of input
// bytes consumed. The returned slices are the decoder's scratch.
func (d *Decoder) DecodeBlock(data []byte) (rows int, types []byte, cols [][]int64, n int, err error) {
	v, hn := binary.Uvarint(data)
	if hn <= 0 || v == 0 || v > MaxBlockRows {
		return 0, nil, nil, 0, fmt.Errorf("%w: block row count", ErrCorrupt)
	}
	rows = int(v)
	n = hn
	if n >= len(data) {
		return 0, nil, nil, 0, fmt.Errorf("%w: truncated block header", ErrCorrupt)
	}
	flags := data[n]
	n++
	if flags&^flagCompressed != 0 {
		return 0, nil, nil, 0, fmt.Errorf("%w: unknown block flags %#x", ErrCorrupt, flags)
	}
	rawLen := -1
	if flags&flagCompressed != 0 {
		v, hn = binary.Uvarint(data[n:])
		if hn <= 0 || v > maxPayload {
			return 0, nil, nil, 0, fmt.Errorf("%w: block raw length", ErrCorrupt)
		}
		rawLen = int(v)
		n += hn
	}
	v, hn = binary.Uvarint(data[n:])
	if hn <= 0 || v > maxPayload {
		return 0, nil, nil, 0, fmt.Errorf("%w: block payload length", ErrCorrupt)
	}
	payloadLen := int(v)
	n += hn
	if payloadLen > len(data)-n {
		return 0, nil, nil, 0, fmt.Errorf("%w: truncated block payload", ErrCorrupt)
	}
	payload := data[n : n+payloadLen]
	n += payloadLen

	// A row is one type byte and ncols varints of 1 to MaxVarintLen64
	// bytes, so a payload of any other size is corrupt. Checking the
	// declared size before inflating keeps a forged header from sizing
	// the raw buffer or the columns beyond what its rows can hold.
	size := payloadLen
	if rawLen >= 0 {
		size = rawLen
	}
	if size < rows*(1+d.ncols) || size > rows*(1+d.ncols*binary.MaxVarintLen64) {
		return 0, nil, nil, 0, fmt.Errorf("%w: %d-byte payload for %d rows", ErrCorrupt, size, rows)
	}

	if flags&flagCompressed != 0 {
		payload, err = d.inflate(payload, rawLen)
		if err != nil {
			return 0, nil, nil, 0, err
		}
	}

	// Type column: one byte per row.
	if len(payload) < rows {
		return 0, nil, nil, 0, fmt.Errorf("%w: truncated type column", ErrCorrupt)
	}
	d.types = append(d.types[:0], payload[:rows]...)
	off := rows

	// Varint columns. The zig-zag varint decode is inlined rather than
	// delegated to binary.Varint: this loop runs once per value over
	// hundreds of millions of values on a paper-scale corpus, and the
	// per-call re-slice plus non-inlinable call costs more than the
	// decode itself. Acceptance matches binary.Varint exactly (at most
	// ten bytes, tenth byte <= 1).
	for c := 0; c < d.ncols; c++ {
		col := d.cols[c]
		if cap(col) < rows {
			col = make([]int64, rows)
		}
		col = col[:rows]
		for r := 0; r < rows; r++ {
			var ux uint64
			var shift uint
			for {
				if off >= len(payload) || shift > 63 {
					return 0, nil, nil, 0, fmt.Errorf("%w: column %d row %d", ErrCorrupt, c, r)
				}
				b := payload[off]
				off++
				if b < 0x80 {
					if shift == 63 && b > 1 {
						return 0, nil, nil, 0, fmt.Errorf("%w: column %d row %d", ErrCorrupt, c, r)
					}
					ux |= uint64(b) << shift
					break
				}
				ux |= uint64(b&0x7f) << shift
				shift += 7
			}
			col[r] = int64(ux>>1) ^ -int64(ux&1)
		}
		d.cols[c] = col
	}
	if off != len(payload) {
		return 0, nil, nil, 0, fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(payload)-off)
	}
	return rows, d.types, d.cols, n, nil
}

// BlockInfo summarises one block's header, as read by SkimBlock.
type BlockInfo struct {
	Rows       int
	StoredLen  int // payload bytes on disk
	RawLen     int // payload bytes after decompression (== StoredLen when raw)
	Compressed bool
}

// SkimBlock parses the block header at the front of data without
// decoding the payload, returning its summary and the total bytes the
// block occupies. Corpus statistics (tracedump -stats) use this to walk
// a stream file's blocks cheaply.
func SkimBlock(data []byte) (BlockInfo, int, error) {
	var bi BlockInfo
	v, hn := binary.Uvarint(data)
	if hn <= 0 || v == 0 || v > MaxBlockRows {
		return bi, 0, fmt.Errorf("%w: block row count", ErrCorrupt)
	}
	bi.Rows = int(v)
	n := hn
	if n >= len(data) {
		return bi, 0, fmt.Errorf("%w: truncated block header", ErrCorrupt)
	}
	flags := data[n]
	n++
	if flags&^flagCompressed != 0 {
		return bi, 0, fmt.Errorf("%w: unknown block flags %#x", ErrCorrupt, flags)
	}
	bi.Compressed = flags&flagCompressed != 0
	if bi.Compressed {
		v, hn = binary.Uvarint(data[n:])
		if hn <= 0 || v > maxPayload {
			return bi, 0, fmt.Errorf("%w: block raw length", ErrCorrupt)
		}
		bi.RawLen = int(v)
		n += hn
	}
	v, hn = binary.Uvarint(data[n:])
	if hn <= 0 || v > maxPayload {
		return bi, 0, fmt.Errorf("%w: block payload length", ErrCorrupt)
	}
	bi.StoredLen = int(v)
	n += hn
	if !bi.Compressed {
		bi.RawLen = bi.StoredLen
	}
	if bi.StoredLen > len(data)-n {
		return bi, 0, fmt.Errorf("%w: truncated block payload", ErrCorrupt)
	}
	return bi, n + bi.StoredLen, nil
}

// inflate decompresses a block payload into the decoder's raw scratch,
// reusing the flate reader via flate.Resetter. The scratch grows as
// bytes arrive, not to the declared length up front, so a header that
// lies about rawLen costs no more memory than its payload inflates to.
func (d *Decoder) inflate(payload []byte, rawLen int) ([]byte, error) {
	src := bytes.NewReader(payload)
	if d.fr == nil {
		d.fr = flate.NewReader(src)
	} else if err := d.fr.(flate.Resetter).Reset(src, nil); err != nil {
		return nil, fmt.Errorf("%w: flate reset: %v", ErrCorrupt, err)
	}
	d.raw = d.raw[:0]
	for len(d.raw) < rawLen {
		if len(d.raw) == cap(d.raw) {
			d.raw = append(d.raw, 0)[:len(d.raw)]
		}
		m, err := d.fr.Read(d.raw[len(d.raw):min(cap(d.raw), rawLen)])
		d.raw = d.raw[:len(d.raw)+m]
		if err == io.EOF && len(d.raw) == rawLen {
			break
		}
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, fmt.Errorf("%w: flate payload: %v", ErrCorrupt, err)
		}
	}
	// The declared raw length must be exact, or the block header lies.
	var tail [1]byte
	if n, _ := d.fr.Read(tail[:]); n != 0 {
		return nil, fmt.Errorf("%w: flate payload longer than declared", ErrCorrupt)
	}
	return d.raw, nil
}
