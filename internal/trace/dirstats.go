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

// CollectDirStats opens dir with OpenDir and skims every stream file for
// the stats above. It parses stream headers and block framing only —
// event payloads are never decompressed or decoded — so it runs at I/O
// speed even on paper-scale corpora.
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
	for _, m := range d.metas {
		fdata, err := os.ReadFile(filepath.Join(dir, m.File))
		if err != nil {
			return st, err
		}
		st.StreamBytes += int64(len(fdata))
		if err := skimStreamV4(fdata, &st); err != nil {
			return st, fmt.Errorf("trace: %s: %w", m.File, err)
		}
	}
	return st, nil
}

// skimStreamV4 walks one TSC4 file's header and block framing,
// accumulating block counts and payload sizes into st. It reads table
// lengths and string bounds but no event payloads.
func skimStreamV4(data []byte, st *DirStats) error {
	c := &byteCursor{data: data}
	if len(data) < len(binaryMagicV4)+2 || string(data[:len(binaryMagicV4)]) != binaryMagicV4 {
		return fmt.Errorf("%w: bad v4 magic", ErrBadFormat)
	}
	c.off = len(binaryMagicV4) + 2
	if _, err := c.string(); err != nil { // stream ID
		return err
	}
	for t := 0; t < 2; t++ { // frame then stack reference tables
		n, err := c.tableLen()
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			if _, err := c.uvarint(); err != nil {
				return err
			}
		}
	}
	nThreads, err := c.tableLen()
	if err != nil {
		return err
	}
	for i := 0; i < nThreads; i++ {
		if _, err := c.varint(); err != nil {
			return err
		}
		if _, err := c.string(); err != nil {
			return err
		}
		if _, err := c.string(); err != nil {
			return err
		}
	}
	nInst, err := c.tableLen()
	if err != nil {
		return err
	}
	for i := 0; i < nInst; i++ {
		if _, err := c.string(); err != nil {
			return err
		}
		for f := 0; f < 3; f++ {
			if _, err := c.varint(); err != nil {
				return err
			}
		}
	}
	nEvents, err := c.tableLen()
	if err != nil {
		return err
	}
	for consumed := 0; consumed < nEvents; {
		bi, n, err := colfmt.SkimBlock(data[c.off:])
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
	if c.off != len(data) {
		return fmt.Errorf("%w: %d trailing bytes after events", ErrBadFormat, len(data)-c.off)
	}
	return nil
}
