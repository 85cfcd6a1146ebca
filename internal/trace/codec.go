package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"

	"tracescope/internal/trace/colfmt"
)

// Wire stream container format (TSCP), what POST /ingest accepts. It is
// the TSC4 stream layout (codec_v4.go) carrying the stream's own frame
// and stack tables where TSC4 references the corpus intern table:
//
//	magic "TSCP" | u16 version 2 | ID |
//	frame table:    uvarint n | n × frame string (distinct)
//	stack table:    uvarint n | n × (uvarint depth | depth × uvarint local frame ID)
//	thread table:   as TSC4
//	instance table: as TSC4
//	events:         uvarint n | colfmt blocks until n rows consumed, as TSC4
//
// So there is one event encoding, on the wire and on disk: the appender
// stores an upload's event blocks as they arrived (Appender.AppendUpload)
// behind a TSC4 header. Version 1, a row-per-event encoding, is gone;
// its bodies are rejected with an error that names it.

const (
	binaryMagic   = "TSCP"
	binaryVersion = 2
	// retiredWireVersion is the row encoding TSCP version 2 replaced.
	retiredWireVersion = 1
	// maxTableLen bounds table sizes read from untrusted input so a
	// corrupt length prefix cannot trigger a huge allocation.
	maxTableLen = 1 << 28
	// maxStringLen bounds individual strings (frames, IDs, names).
	maxStringLen = 1 << 20
	// maxPrealloc caps slice capacity allocated up-front from untrusted
	// lengths; longer inputs grow the slice as bytes actually arrive,
	// so a forged length cannot allocate memory the input cannot back.
	maxPrealloc = 1 << 16
)

// prealloc returns a safe initial capacity for an untrusted length.
func prealloc(n int) int {
	if n > maxPrealloc {
		return maxPrealloc
	}
	return n
}

// ErrBadFormat reports a malformed binary stream.
var ErrBadFormat = errors.New("trace: malformed binary stream")

// WriteBinary encodes the stream in the TSCP wire format: its own
// tables, then its events as colfmt blocks of DefaultBlockRows rows,
// uncompressed — the blocks Appender.Append writes for it.
func (s *Stream) WriteBinary(w io.Writer) error {
	b := appendPrefix(nil, binaryMagic, binaryVersion, s.ID)
	b = binary.AppendUvarint(b, uint64(len(s.frames)))
	for _, f := range s.frames {
		b = appendString(b, f)
	}
	b = binary.AppendUvarint(b, uint64(len(s.stacks)))
	for _, st := range s.stacks {
		b = binary.AppendUvarint(b, uint64(len(st)))
		for _, f := range st {
			b = binary.AppendUvarint(b, uint64(f))
		}
	}
	b = appendSuffix(b, s)
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(b); err != nil {
		return err
	}
	if err := writeEventBlocks(bw, s.Events, colfmt.NewEncoder(eventColumns), false); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadBinary decodes a stream written by WriteBinary into memory the
// stream owns. r must end where the stream does: bytes after the
// declared events are rejected, not dropped.
func ReadBinary(r io.Reader) (*Stream, error) {
	return ReadUpload(r, new(Upload))
}

// An Upload is one TSCP body and the stream decoded from it, held for
// the write path: ReadUpload fills it, and Appender.AppendUpload stores
// the body's event blocks as they arrived instead of encoding the
// events again. The blocks travel with the upload, never with a Stream:
// a Stream is mutable, and only blocks decoded into the very stream
// being appended may stand for its events.
//
// Its buffers are reused by the next ReadUpload, under the Scratch
// contract (DESIGN.md §10): the stream and everything reachable from it
// but its strings is valid until then. The stream must not be modified
// in between. The zero value is ready to use; not safe for concurrent
// use.
type Upload struct {
	sc     Scratch
	stream *Stream
	blocks []byte // the body's event blocks, within sc.raw
}

// ReadUpload reads a TSCP body from r into u and decodes it there,
// through the decoder TSC4 stream files use. Every rejection is
// ErrBadFormat. On error u holds no stream.
func ReadUpload(r io.Reader, u *Upload) (*Stream, error) {
	u.stream, u.blocks = nil, nil
	raw, err := readAll(r, u.sc.raw[:0])
	u.sc.raw = raw
	if err != nil {
		return nil, fmt.Errorf("%w: reading body: %v", ErrBadFormat, err)
	}
	s, blocksAt, err := decodeStream(raw, nil, &u.sc)
	if err != nil {
		return nil, err
	}
	u.stream, u.blocks = s, raw[blocksAt:]
	return s, nil
}

// Size returns the bytes u's buffers hold, which a pool that keeps u for
// the next upload keeps with it.
func (u *Upload) Size() int {
	return u.sc.retained()
}

// readAll reads r to its end into b, growing it as bytes arrive.
func readAll(r io.Reader, b []byte) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// appendPrefix appends a stream container's magic, version and stream ID.
func appendPrefix(b []byte, magic string, version uint16, id string) []byte {
	b = append(b, magic...)
	b = binary.LittleEndian.AppendUint16(b, version)
	return appendString(b, id)
}

// appendSuffix appends what follows the frame and stack tables in both
// containers: the thread table in ascending TID order, the instance
// table and the event count.
func appendSuffix(b []byte, s *Stream) []byte {
	b = binary.AppendUvarint(b, uint64(len(s.Threads)))
	for _, tid := range sortedThreadIDs(s.Threads) {
		ti := s.Threads[tid]
		b = binary.AppendVarint(b, int64(tid))
		b = appendString(b, ti.Process)
		b = appendString(b, ti.Name)
	}
	b = binary.AppendUvarint(b, uint64(len(s.Instances)))
	for _, in := range s.Instances {
		b = appendString(b, in.Scenario)
		b = binary.AppendVarint(b, int64(in.TID))
		b = binary.AppendVarint(b, int64(in.Start))
		b = binary.AppendVarint(b, int64(in.End))
	}
	return binary.AppendUvarint(b, uint64(len(s.Events)))
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func sortedThreadIDs(m map[ThreadID]ThreadInfo) []ThreadID {
	ids := make([]ThreadID, 0, len(m))
	for tid := range m {
		ids = append(ids, tid)
	}
	sort.SliceStable(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
