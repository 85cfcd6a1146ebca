package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
)

// Wire stream container format (TSCP), what POST /ingest accepts. It is
// never a corpus file: on disk a stream is a TSC4 container (codec_v4.go).
//
//	magic "TSCP" | u16 version | ID | frame table | stack table |
//	thread table | instance table | event sequence
//
// All integers are unsigned varints (zig-zag for signed fields); strings
// are length-prefixed UTF-8. Event times and costs are delta-encoded
// against the previous event to keep corpora small.

const (
	binaryMagic   = "TSCP"
	binaryVersion = 1
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

// WriteBinary encodes the stream in the tracescope binary container format.
func (s *Stream) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	var verBuf [2]byte
	binary.LittleEndian.PutUint16(verBuf[:], binaryVersion)
	if _, err := bw.Write(verBuf[:]); err != nil {
		return err
	}
	writeString(bw, s.ID)

	writeUvarint(bw, uint64(len(s.frames)))
	for _, f := range s.frames {
		writeString(bw, f)
	}

	writeUvarint(bw, uint64(len(s.stacks)))
	for _, st := range s.stacks {
		writeUvarint(bw, uint64(len(st)))
		for _, f := range st {
			writeUvarint(bw, uint64(f))
		}
	}

	writeUvarint(bw, uint64(len(s.Threads)))
	// Deterministic order: iterate ascending TIDs.
	for _, tid := range sortedThreadIDs(s.Threads) {
		ti := s.Threads[tid]
		writeVarint(bw, int64(tid))
		writeString(bw, ti.Process)
		writeString(bw, ti.Name)
	}

	writeUvarint(bw, uint64(len(s.Instances)))
	for _, in := range s.Instances {
		writeString(bw, in.Scenario)
		writeVarint(bw, int64(in.TID))
		writeVarint(bw, int64(in.Start))
		writeVarint(bw, int64(in.End))
	}

	writeUvarint(bw, uint64(len(s.Events)))
	var prevTime Time
	for _, e := range s.Events {
		if err := bw.WriteByte(byte(e.Type)); err != nil {
			return err
		}
		writeVarint(bw, int64(e.Time-prevTime))
		prevTime = e.Time
		writeVarint(bw, int64(e.Cost))
		writeVarint(bw, int64(e.TID))
		writeVarint(bw, int64(e.WTID))
		writeVarint(bw, int64(e.Stack))
	}
	return bw.Flush()
}

// ReadBinary decodes a stream written by WriteBinary. r must end where
// the stream does: bytes after the declared events are rejected, not
// dropped.
func ReadBinary(r io.Reader) (*Stream, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: reading magic: %v", ErrBadFormat, err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadFormat, magic)
	}
	verBuf := make([]byte, 2)
	if _, err := io.ReadFull(br, verBuf); err != nil {
		return nil, fmt.Errorf("%w: reading version: %v", ErrBadFormat, err)
	}
	if v := binary.LittleEndian.Uint16(verBuf); v != binaryVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadFormat, v)
	}

	id, err := readString(br)
	if err != nil {
		return nil, err
	}
	s := NewStream(id)

	nFrames, err := readLen(br)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nFrames; i++ {
		f, err := readString(br)
		if err != nil {
			return nil, err
		}
		s.InternFrame(f)
	}

	nStacks, err := readLen(br)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nStacks; i++ {
		n, err := readLen(br)
		if err != nil {
			return nil, err
		}
		frames := make([]FrameID, 0, prealloc(n))
		for j := 0; j < n; j++ {
			v, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("%w: stack frame: %v", ErrBadFormat, err)
			}
			if v >= uint64(len(s.frames)) {
				return nil, fmt.Errorf("%w: stack frame id %d out of range", ErrBadFormat, v)
			}
			frames = append(frames, FrameID(v))
		}
		s.InternStack(frames)
	}

	nThreads, err := readLen(br)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nThreads; i++ {
		tid, err := readVarint(br)
		if err != nil {
			return nil, err
		}
		proc, err := readString(br)
		if err != nil {
			return nil, err
		}
		name, err := readString(br)
		if err != nil {
			return nil, err
		}
		s.SetThread(ThreadID(tid), proc, name)
	}

	nInst, err := readLen(br)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nInst; i++ {
		scen, err := readString(br)
		if err != nil {
			return nil, err
		}
		tid, err := readVarint(br)
		if err != nil {
			return nil, err
		}
		start, err := readVarint(br)
		if err != nil {
			return nil, err
		}
		end, err := readVarint(br)
		if err != nil {
			return nil, err
		}
		s.Instances = append(s.Instances, Instance{
			Scenario: scen, TID: ThreadID(tid), Start: Time(start), End: Time(end),
		})
	}

	nEvents, err := readLen(br)
	if err != nil {
		return nil, err
	}
	s.Events = make([]Event, 0, prealloc(nEvents))
	var prevTime Time
	for i := 0; i < nEvents; i++ {
		tb, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("%w: event type: %v", ErrBadFormat, err)
		}
		dt, err := readVarint(br)
		if err != nil {
			return nil, err
		}
		cost, err := readVarint(br)
		if err != nil {
			return nil, err
		}
		tid, err := readVarint(br)
		if err != nil {
			return nil, err
		}
		wtid, err := readVarint(br)
		if err != nil {
			return nil, err
		}
		stack, err := readVarint(br)
		if err != nil {
			return nil, err
		}
		prevTime += Time(dt)
		s.Events = append(s.Events, Event{
			Type:  EventType(tb),
			Time:  prevTime,
			Cost:  Duration(cost),
			TID:   ThreadID(tid),
			WTID:  ThreadID(wtid),
			Stack: StackID(stack),
		})
	}
	if _, err := br.ReadByte(); err == nil {
		return nil, fmt.Errorf("%w: trailing bytes after events", ErrBadFormat)
	} else if err != io.EOF {
		return nil, fmt.Errorf("%w: reading past events: %v", ErrBadFormat, err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	return s, nil
}

func writeUvarint(w *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n]) //nolint:errcheck // bufio defers errors to Flush
}

func writeVarint(w *bufio.Writer, v int64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], v)
	w.Write(buf[:n]) //nolint:errcheck // bufio defers errors to Flush
}

func writeString(w *bufio.Writer, s string) {
	writeUvarint(w, uint64(len(s)))
	w.WriteString(s) //nolint:errcheck // bufio defers errors to Flush
}

func readLen(br *bufio.Reader) (int, error) {
	v, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, fmt.Errorf("%w: length: %v", ErrBadFormat, err)
	}
	if v > maxTableLen {
		return 0, fmt.Errorf("%w: length %d too large", ErrBadFormat, v)
	}
	return int(v), nil
}

func readVarint(br *bufio.Reader) (int64, error) {
	v, err := binary.ReadVarint(br)
	if err != nil {
		return 0, fmt.Errorf("%w: varint: %v", ErrBadFormat, err)
	}
	return v, nil
}

func readString(br *bufio.Reader) (string, error) {
	n, err := readLen(br)
	if err != nil {
		return "", err
	}
	if n > maxStringLen {
		return "", fmt.Errorf("%w: string length %d too large", ErrBadFormat, n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(br, buf); err != nil {
		return "", fmt.Errorf("%w: string body: %v", ErrBadFormat, err)
	}
	return string(buf), nil
}

func sortedThreadIDs(m map[ThreadID]ThreadInfo) []ThreadID {
	ids := make([]ThreadID, 0, len(m))
	for tid := range m {
		ids = append(ids, tid)
	}
	sort.SliceStable(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
