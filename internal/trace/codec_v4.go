package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"tracescope/internal/trace/colfmt"
)

// On-disk stream container ("TSC4"):
//
//	magic "TSC4" | u16 version | ID |
//	local frame table:  uvarint n | n × uvarint globalFrameID
//	local stack table:  uvarint n | n × uvarint globalStackID
//	thread table:       uvarint n | n × (varint tid, process, name)
//	instance table:     uvarint n | n × (scenario, varint tid, varint start, varint end)
//	events:             uvarint n | colfmt blocks until n rows consumed
//
// Strings are uvarint-length-prefixed UTF-8, as on the wire. The frame and
// stack tables hold no payload of their own — only references into the
// corpus-level InternTable (corpus.intern), which assigns global IDs in
// append order. Decoding reconstructs the stream's original local ID
// spaces exactly (local frame i is the i-th table entry; local stacks
// are translated back through the local frame table), so a decoded
// stream is indistinguishable from the one written and every analysis
// result is bit-for-bit identical to the in-memory corpus's.
//
// Events are stored as colfmt blocks of eventColumns zig-zag varint
// columns (time delta, cost, TID, WTID, stack) behind a byte-per-row
// type column.

const (
	binaryMagicV4   = "TSC4"
	binaryVersionV4 = 4
	// eventColumns is the number of varint columns in an event block:
	// time delta, cost, TID, WTID, stack.
	eventColumns = 5
)

// byteCursor reads the v4 wire primitives from an in-memory buffer.
type byteCursor struct {
	data []byte
	off  int
}

func (c *byteCursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.data[c.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: truncated uvarint at offset %d", ErrBadFormat, c.off)
	}
	c.off += n
	return v, nil
}

func (c *byteCursor) varint() (int64, error) {
	v, n := binary.Varint(c.data[c.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: truncated varint at offset %d", ErrBadFormat, c.off)
	}
	c.off += n
	return v, nil
}

// tableLen reads a length bounded by maxTableLen.
func (c *byteCursor) tableLen() (int, error) {
	v, err := c.uvarint()
	if err != nil {
		return 0, err
	}
	if v > maxTableLen {
		return 0, fmt.Errorf("%w: length %d too large", ErrBadFormat, v)
	}
	return int(v), nil
}

func (c *byteCursor) string() (string, error) {
	n, err := c.uvarint()
	if err != nil {
		return "", err
	}
	if n > maxStringLen {
		return "", fmt.Errorf("%w: string length %d too large", ErrBadFormat, n)
	}
	if uint64(len(c.data)-c.off) < n {
		return "", fmt.Errorf("%w: truncated string at offset %d", ErrBadFormat, c.off)
	}
	s := string(c.data[c.off : c.off+int(n)])
	c.off += int(n)
	return s, nil
}

// writeBinaryV4 encodes the stream against the corpus intern table,
// interning any frames and stacks not yet in it. enc is the caller's
// reusable block encoder (column count eventColumns).
func (s *Stream) writeBinaryV4(w io.Writer, it *InternTable, enc *colfmt.Encoder, compress bool) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagicV4); err != nil {
		return err
	}
	var verBuf [2]byte
	binary.LittleEndian.PutUint16(verBuf[:], binaryVersionV4)
	if _, err := bw.Write(verBuf[:]); err != nil {
		return err
	}
	writeString(bw, s.ID)

	// Local frame table → global frame IDs, preserving local order.
	l2g := make([]FrameID, len(s.frames))
	writeUvarint(bw, uint64(len(s.frames)))
	for i, f := range s.frames {
		l2g[i] = it.internFrame(f)
		writeUvarint(bw, uint64(l2g[i]))
	}

	// Local stack table → global stack IDs, preserving local order.
	writeUvarint(bw, uint64(len(s.stacks)))
	var gframes []FrameID
	for _, st := range s.stacks {
		gframes = gframes[:0]
		for _, f := range st {
			gframes = append(gframes, l2g[f])
		}
		writeUvarint(bw, uint64(it.internStack(gframes)))
	}

	writeUvarint(bw, uint64(len(s.Threads)))
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
	if err := bw.Flush(); err != nil {
		return err
	}
	return writeEventBlocks(w, s.Events, enc, compress)
}

// writeEventBlocks transposes the event sequence into colfmt blocks of
// DefaultBlockRows rows each.
func writeEventBlocks(w io.Writer, events []Event, enc *colfmt.Encoder, compress bool) error {
	types := make([]byte, 0, colfmt.DefaultBlockRows)
	cols := make([][]int64, eventColumns)
	for i := range cols {
		cols[i] = make([]int64, 0, colfmt.DefaultBlockRows)
	}
	var prevTime Time
	flush := func() error {
		if len(types) == 0 {
			return nil
		}
		err := enc.EncodeBlock(w, types, cols, compress)
		types = types[:0]
		for i := range cols {
			cols[i] = cols[i][:0]
		}
		return err
	}
	for _, e := range events {
		types = append(types, byte(e.Type))
		cols[0] = append(cols[0], int64(e.Time-prevTime))
		prevTime = e.Time
		cols[1] = append(cols[1], int64(e.Cost))
		cols[2] = append(cols[2], int64(e.TID))
		cols[3] = append(cols[3], int64(e.WTID))
		cols[4] = append(cols[4], int64(e.Stack))
		if len(types) == colfmt.DefaultBlockRows {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}

// readBinaryV4 decodes a v4 stream file from data using the corpus
// intern table, filling the buffer set b: every slice and the thread map
// of the returned Stream are b's, so the stream is valid until b's next
// decode. The Stream value itself is new each time — a FilterCache tells
// streams apart by address. On error b is untouched enough to be reused.
func readBinaryV4(data []byte, it *InternTable, b *Scratch) (*Stream, error) {
	c := &byteCursor{data: data}
	if len(data) < len(binaryMagicV4)+2 {
		return nil, fmt.Errorf("%w: truncated v4 header", ErrBadFormat)
	}
	if string(data[:4]) != binaryMagicV4 {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadFormat, data[:4])
	}
	c.off = 4
	if v := binary.LittleEndian.Uint16(data[c.off:]); v != binaryVersionV4 {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadFormat, v)
	}
	c.off += 2

	id, err := c.string()
	if err != nil {
		return nil, err
	}

	// Local frame table: global IDs resolved against the intern table.
	nFrames, err := c.tableLen()
	if err != nil {
		return nil, err
	}
	if cap(b.frames) < nFrames {
		b.frames = make([]string, 0, prealloc(nFrames))
		b.frameGlobals = make([]FrameID, 0, prealloc(nFrames))
	}
	b.frames = b.frames[:0]
	b.frameGlobals = b.frameGlobals[:0]
	for i := 0; i < nFrames; i++ {
		g, err := c.uvarint()
		if err != nil {
			return nil, err
		}
		if g >= uint64(it.NumFrames()) {
			return nil, fmt.Errorf("%w: frame table entry %d references global frame %d of %d",
				ErrBadFormat, i, g, it.NumFrames())
		}
		b.frames = append(b.frames, it.frames[g])
		b.frameGlobals = append(b.frameGlobals, FrameID(g))
	}

	// Global→local frame scratch, reset via frameGlobals afterwards.
	if cap(b.g2l) < it.NumFrames() {
		b.g2l = make([]FrameID, it.NumFrames())
		for i := range b.g2l {
			b.g2l[i] = -1
		}
	}
	b.g2l = b.g2l[:cap(b.g2l)]
	for local, g := range b.frameGlobals {
		b.g2l[g] = FrameID(local)
	}
	defer func() {
		for _, g := range b.frameGlobals {
			b.g2l[g] = -1
		}
	}()

	// Local stack table: global stack IDs, translated back into local
	// frame IDs over a single arena sized up front so subslices never
	// move.
	nStacks, err := c.tableLen()
	if err != nil {
		return nil, err
	}
	if cap(b.stackGlobals) < nStacks {
		b.stackGlobals = make([]StackID, 0, prealloc(nStacks))
	}
	b.stackGlobals = b.stackGlobals[:0]
	arenaLen := 0
	for i := 0; i < nStacks; i++ {
		g, err := c.uvarint()
		if err != nil {
			return nil, err
		}
		if g >= uint64(it.NumStacks()) {
			return nil, fmt.Errorf("%w: stack table entry %d references global stack %d of %d",
				ErrBadFormat, i, g, it.NumStacks())
		}
		b.stackGlobals = append(b.stackGlobals, StackID(g))
		arenaLen += len(it.stacks[g])
	}
	if cap(b.arena) < arenaLen {
		b.arena = make([]FrameID, 0, arenaLen)
	}
	b.arena = b.arena[:0]
	if cap(b.stacks) < nStacks {
		b.stacks = make([][]FrameID, 0, prealloc(nStacks))
	}
	b.stacks = b.stacks[:0]
	for i, g := range b.stackGlobals {
		start := len(b.arena)
		for _, gf := range it.stacks[g] {
			lf := b.g2l[gf]
			if lf < 0 {
				return nil, fmt.Errorf("%w: stack %d references frame %d absent from the local frame table",
					ErrBadFormat, i, gf)
			}
			b.arena = append(b.arena, lf)
		}
		b.stacks = append(b.stacks, b.arena[start:len(b.arena):len(b.arena)])
	}

	// Threads.
	nThreads, err := c.tableLen()
	if err != nil {
		return nil, err
	}
	if b.threads == nil {
		b.threads = make(map[ThreadID]ThreadInfo, prealloc(nThreads))
	} else {
		clear(b.threads)
	}
	for i := 0; i < nThreads; i++ {
		tid, err := c.varint()
		if err != nil {
			return nil, err
		}
		proc, err := c.string()
		if err != nil {
			return nil, err
		}
		name, err := c.string()
		if err != nil {
			return nil, err
		}
		b.threads[ThreadID(tid)] = ThreadInfo{Process: proc, Name: name}
	}

	// Instances.
	nInst, err := c.tableLen()
	if err != nil {
		return nil, err
	}
	if cap(b.instances) < nInst {
		b.instances = make([]Instance, 0, prealloc(nInst))
	}
	b.instances = b.instances[:0]
	for i := 0; i < nInst; i++ {
		scen, err := c.string()
		if err != nil {
			return nil, err
		}
		tid, err := c.varint()
		if err != nil {
			return nil, err
		}
		start, err := c.varint()
		if err != nil {
			return nil, err
		}
		end, err := c.varint()
		if err != nil {
			return nil, err
		}
		b.instances = append(b.instances, Instance{
			Scenario: scen, TID: ThreadID(tid), Start: Time(start), End: Time(end),
		})
	}

	// Events: colfmt blocks.
	nEvents, err := c.tableLen()
	if err != nil {
		return nil, err
	}
	if cap(b.events) < nEvents {
		b.events = make([]Event, 0, prealloc(nEvents))
	}
	b.events = b.events[:0]
	if b.dec == nil {
		b.dec = colfmt.NewDecoder(eventColumns)
	}
	var prevTime Time
	for len(b.events) < nEvents {
		rows, types, cols, n, err := b.dec.DecodeBlock(c.data[c.off:])
		if err != nil {
			return nil, fmt.Errorf("%w: event block at offset %d: %v", ErrBadFormat, c.off, err)
		}
		c.off += n
		if len(b.events)+rows > nEvents {
			return nil, fmt.Errorf("%w: event blocks hold more than the declared %d events", ErrBadFormat, nEvents)
		}
		dts, costs, tids, wtids, stks := cols[0], cols[1], cols[2], cols[3], cols[4]
		for r := 0; r < rows; r++ {
			prevTime += Time(dts[r])
			b.events = append(b.events, Event{
				Type:  EventType(types[r]),
				Time:  prevTime,
				Cost:  Duration(costs[r]),
				TID:   ThreadID(tids[r]),
				WTID:  ThreadID(wtids[r]),
				Stack: StackID(stks[r]),
			})
		}
	}
	if c.off != len(c.data) {
		return nil, fmt.Errorf("%w: %d trailing bytes after events", ErrBadFormat, len(c.data)-c.off)
	}

	// The index maps stay nil: InternFrame rebuilds them if ever needed.
	s := &Stream{
		ID:        id,
		frames:    b.frames,
		stacks:    b.stacks,
		Events:    b.events,
		Instances: b.instances,
		Threads:   b.threads,
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	return s, nil
}
