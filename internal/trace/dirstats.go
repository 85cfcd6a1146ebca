package trace

import (
	"fmt"
	"os"
	"path/filepath"

	"tracescope/internal/trace/colfmt"
)

// DirStats summarizes a corpus directory's on-disk footprint without
// decoding any event payloads: index metadata plus per-block storage
// accounting skimmed from the columnar stream files (tracedump -stats
// renders it).
type DirStats struct {
	Streams   int
	Events    int
	Instances int

	// The corpus intern table the index defines.
	Frames int
	Stacks int

	// Event-block accounting.
	Blocks           int
	CompressedBlocks int
	EventBytesStored int64 // block payload bytes as stored on disk
	EventBytesRaw    int64 // block payload bytes after decompression

	// File sizes.
	StreamBytes int64
	IndexBytes  int64
}

// CollectDirStats opens dir with OpenDir and reads every stream file for
// the stats above. A file's header is decoded by the code that decodes
// it for DirSource.StreamInto (decodeHeader), so a header the source
// refuses is refused here too; of the event blocks only the framing is
// read — no payload is decompressed or decoded — so it runs at I/O speed
// even on paper-scale corpora.
func CollectDirStats(dir string) (DirStats, error) {
	var st DirStats
	d, err := OpenDir(dir)
	if err != nil {
		return st, err
	}
	st.Streams, st.Events, st.Instances = d.NumStreams(), d.NumEvents(), d.NumInstances()
	st.Frames, st.Stacks = d.intern.NumFrames(), d.intern.NumStacks()
	if st.IndexBytes, err = fileLen(filepath.Join(dir, indexFile)); err != nil {
		return st, err
	}
	var sc Scratch
	for _, m := range d.metas {
		fdata, err := os.ReadFile(filepath.Join(dir, m.File))
		if err != nil {
			return st, err
		}
		st.StreamBytes += int64(len(fdata))
		c := &byteCursor{data: fdata}
		_, nEvents, err := sc.decodeHeader(c, d.intern)
		if err == nil {
			err = skimEventBlocks(c, nEvents, &st)
		}
		if err != nil {
			return st, fmt.Errorf("trace: %s: %w", m.File, err)
		}
	}
	return st, nil
}

// skimEventBlocks walks the block framing from c to the end of its data,
// accumulating block counts and payload sizes into st.
func skimEventBlocks(c *byteCursor, nEvents int, st *DirStats) error {
	for consumed := 0; consumed < nEvents; {
		bi, n, err := colfmt.SkimBlock(c.data[c.off:])
		if err != nil {
			return fmt.Errorf("%w: event block at offset %d: %v", ErrBadFormat, c.off, err)
		}
		c.off += n
		consumed += bi.Rows
		st.Blocks++
		if bi.Compressed {
			st.CompressedBlocks++
		}
		st.EventBytesStored += int64(bi.StoredLen)
		st.EventBytesRaw += int64(bi.RawLen)
	}
	if c.off != len(c.data) {
		return fmt.Errorf("%w: %d trailing bytes after events", ErrBadFormat, len(c.data)-c.off)
	}
	return nil
}
