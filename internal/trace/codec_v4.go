package trace

import (
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
// corpus-level InternTable (the f and k records of corpus.index), which
// assigns global IDs in append order. Decoding reconstructs the stream's original local ID
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

// decodeHeader decodes everything of a stream container before its event
// blocks into b — magic and version, ID, frame and stack tables (TSCP's
// own when it is nil, else references into it), threads and instances —
// and returns the ID and the declared event count, leaving c at the
// first event block. It is the one reader of that layout: decodeStream
// goes on to decode the blocks, CollectDirStats only to skim them.
func (b *Scratch) decodeHeader(c *byteCursor, it *InternTable) (id string, nEvents int, err error) {
	if err := c.header(it == nil); err != nil {
		return "", 0, err
	}
	if id, err = c.string(); err != nil {
		return "", 0, err
	}
	if it == nil {
		err = b.wireTables(c)
	} else {
		err = b.internedTables(c, it)
	}
	if err != nil {
		return "", 0, err
	}

	// Threads.
	nThreads, err := c.tableLen()
	if err != nil {
		return "", 0, err
	}
	b.mapPeak = max(b.mapPeak, nThreads)
	if b.threads == nil {
		b.threads = make(map[ThreadID]ThreadInfo, prealloc(nThreads))
	} else {
		clear(b.threads)
	}
	for i := 0; i < nThreads; i++ {
		tid, err := c.varint()
		if err != nil {
			return "", 0, err
		}
		proc, err := c.string()
		if err != nil {
			return "", 0, err
		}
		name, err := c.string()
		if err != nil {
			return "", 0, err
		}
		b.threads[ThreadID(tid)] = ThreadInfo{Process: proc, Name: name}
	}

	// Instances.
	nInst, err := c.tableLen()
	if err != nil {
		return "", 0, err
	}
	if cap(b.instances) < nInst {
		b.instances = make([]Instance, 0, prealloc(nInst))
	}
	b.instances = b.instances[:0]
	for i := 0; i < nInst; i++ {
		scen, err := c.string()
		if err != nil {
			return "", 0, err
		}
		tid, err := c.varint()
		if err != nil {
			return "", 0, err
		}
		start, err := c.varint()
		if err != nil {
			return "", 0, err
		}
		end, err := c.varint()
		if err != nil {
			return "", 0, err
		}
		b.instances = append(b.instances, Instance{
			Scenario: scen, TID: ThreadID(tid), Start: Time(start), End: Time(end),
		})
	}

	// Events: their count; the colfmt blocks follow.
	if nEvents, err = c.tableLen(); err != nil {
		return "", 0, err
	}
	return id, nEvents, nil
}

// decodeStream decodes one stream container from data into the buffer
// set b: a TSCP body when it is nil, else a TSC4 stream file whose tables
// reference it. The two differ only in their frame and stack tables;
// threads, instances and the event blocks are decoded by the same code.
// Every slice and the thread map of the returned Stream are b's, so the
// stream is valid until b's next decode; no string is (a TSC4 file's
// frames are the intern table's, every other string is the stream's
// own). The Stream value itself is new each time — a FilterCache tells
// streams apart by address. blocksAt is the offset in data of the first event
// block. On error b is untouched enough to be reused.
func decodeStream(data []byte, it *InternTable, b *Scratch) (s *Stream, blocksAt int, err error) {
	c := &byteCursor{data: data}
	id, nEvents, err := b.decodeHeader(c, it)
	if err != nil {
		return nil, 0, err
	}
	if cap(b.events) < nEvents {
		// No more events than bytes remain, so a forged count sizes
		// nothing; a compressed block holding more grows the slice.
		b.events = make([]Event, 0, prealloc(min(nEvents, len(c.data)-c.off)))
	}
	b.events = b.events[:0]
	if b.dec == nil {
		b.dec = colfmt.NewDecoder(eventColumns)
	}
	blocksAt = c.off
	var prevTime Time
	for len(b.events) < nEvents {
		rows, types, cols, n, err := b.dec.DecodeBlock(c.data[c.off:])
		if err != nil {
			return nil, 0, fmt.Errorf("%w: event block at offset %d: %v", ErrBadFormat, c.off, err)
		}
		c.off += n
		if len(b.events)+rows > nEvents {
			return nil, 0, fmt.Errorf("%w: event blocks hold more than the declared %d events", ErrBadFormat, nEvents)
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
		return nil, 0, fmt.Errorf("%w: %d trailing bytes after events", ErrBadFormat, len(c.data)-c.off)
	}

	// The index maps stay nil: InternFrame rebuilds them if ever needed.
	s = &Stream{
		ID:        id,
		frames:    b.frames,
		stacks:    b.stacks,
		Events:    b.events,
		Instances: b.instances,
		Threads:   b.threads,
	}
	if err := s.Validate(); err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	return s, blocksAt, nil
}

// header checks a container's magic and version: TSCP's when wire is
// set, else TSC4's.
func (c *byteCursor) header(wire bool) error {
	magic, version := binaryMagicV4, uint16(binaryVersionV4)
	if wire {
		magic, version = binaryMagic, binaryVersion
	}
	if len(c.data) < len(magic)+2 {
		return fmt.Errorf("%w: truncated %s header", ErrBadFormat, magic)
	}
	if string(c.data[:len(magic)]) != magic {
		return fmt.Errorf("%w: bad magic %q", ErrBadFormat, c.data[:len(magic)])
	}
	c.off = len(magic)
	v := binary.LittleEndian.Uint16(c.data[c.off:])
	c.off += 2
	switch {
	case v == version:
		return nil
	case wire && v == retiredWireVersion:
		return fmt.Errorf("%w: TSCP version 1, the retired row encoding: this build reads only version %d; re-encode the stream with this build's tracegen -stream (Stream.WriteBinary)",
			ErrBadFormat, binaryVersion)
	default:
		return fmt.Errorf("%w: unsupported %s version %d", ErrBadFormat, magic, v)
	}
}

// wireTables decodes TSCP's own frame and stack tables into b. Frames
// must be distinct: a TSC4 file can hold one local ID per frame string,
// so a repeated frame would not read back as it arrived.
func (b *Scratch) wireTables(c *byteCursor) error {
	nFrames, err := c.tableLen()
	if err != nil {
		return err
	}
	if cap(b.frames) < nFrames {
		b.frames = make([]string, 0, prealloc(nFrames))
	}
	b.frames = b.frames[:0]
	b.mapPeak = max(b.mapPeak, nFrames)
	if b.frameSet == nil {
		b.frameSet = make(map[string]struct{}, prealloc(nFrames))
	} else {
		clear(b.frameSet)
	}
	for i := 0; i < nFrames; i++ {
		f, err := c.string()
		if err != nil {
			return err
		}
		if _, dup := b.frameSet[f]; dup {
			return fmt.Errorf("%w: frame table entry %d repeats frame %q", ErrBadFormat, i, f)
		}
		b.frameSet[f] = struct{}{}
		b.frames = append(b.frames, f)
	}

	// Stack frame lists land in one arena; the stacks are cut from it
	// once it has stopped growing.
	nStacks, err := c.tableLen()
	if err != nil {
		return err
	}
	b.arena, b.stackEnds = b.arena[:0], b.stackEnds[:0]
	for i := 0; i < nStacks; i++ {
		depth, err := c.tableLen()
		if err != nil {
			return err
		}
		for j := 0; j < depth; j++ {
			f, err := c.uvarint()
			if err != nil {
				return err
			}
			if f >= uint64(nFrames) {
				return fmt.Errorf("%w: stack %d frame id %d out of range", ErrBadFormat, i, f)
			}
			b.arena = append(b.arena, FrameID(f))
		}
		b.stackEnds = append(b.stackEnds, len(b.arena))
	}
	if cap(b.stacks) < nStacks {
		b.stacks = make([][]FrameID, 0, nStacks)
	}
	b.stacks = b.stacks[:0]
	start := 0
	for _, end := range b.stackEnds {
		b.stacks = append(b.stacks, b.arena[start:end:end])
		start = end
	}
	return nil
}

// internedTables decodes TSC4's frame and stack tables, references into
// the corpus intern table, back into the stream's local ID spaces.
func (b *Scratch) internedTables(c *byteCursor, it *InternTable) error {
	// Local frame table: global IDs resolved against the intern table.
	nFrames, err := c.tableLen()
	if err != nil {
		return err
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
			return err
		}
		if g >= uint64(it.NumFrames()) {
			return undefinedRef(fmt.Errorf("%w: frame table entry %d references global frame %d of %d",
				ErrBadFormat, i, g, it.NumFrames()))
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
		return err
	}
	if cap(b.stackGlobals) < nStacks {
		b.stackGlobals = make([]StackID, 0, prealloc(nStacks))
	}
	b.stackGlobals = b.stackGlobals[:0]
	arenaLen := 0
	for i := 0; i < nStacks; i++ {
		g, err := c.uvarint()
		if err != nil {
			return err
		}
		if g >= uint64(it.NumStacks()) {
			return undefinedRef(fmt.Errorf("%w: stack table entry %d references global stack %d of %d",
				ErrBadFormat, i, g, it.NumStacks()))
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
				return fmt.Errorf("%w: stack %d references frame %d absent from the local frame table",
					ErrBadFormat, i, gf)
			}
			b.arena = append(b.arena, lf)
		}
		b.stacks = append(b.stacks, b.arena[start:len(b.arena):len(b.arena)])
	}
	return nil
}
