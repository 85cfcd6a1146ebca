package trace

import "tracescope/internal/trace/colfmt"

// Scratch is the complete buffer set one v4 stream decode fills: the raw
// file bytes, the event/frame/stack/instance slices, the stack arena
// backing every stack's frame list, the thread map, the global→local
// scratch and the colfmt column decoder. Its owner — one engine worker,
// one stream-major walk — passes it to StreamInto for every stream it
// fetches, so a sweep decodes into the same memory from first stream to
// last. The zero value is ready to use; not safe for concurrent use.
//
// The contract (DESIGN.md §10): a stream decoded into a Scratch, and
// everything reachable from it — events, stack slices, instance records,
// the thread map — is valid only until the Scratch's next decode.
// Frame strings are exempt: they live in the corpus InternTable.
type Scratch struct {
	raw          []byte
	events       []Event
	frames       []string
	frameGlobals []FrameID // local frame table as global IDs (g2l reset list)
	stackGlobals []StackID // local stack table as global IDs
	stacks       [][]FrameID
	arena        []FrameID // backing store for stacks' frame lists
	instances    []Instance
	threads      map[ThreadID]ThreadInfo
	g2l          []FrameID // global frame ID → local, -1 when absent
	dec          *colfmt.Decoder
}

// scratchSource is the optional fetch a Source may offer beside Stream.
type scratchSource interface {
	StreamInto(i int, sc *Scratch) (*Stream, error)
}

// StreamInto fetches stream i of src for a caller that reads it once and
// drops it: a source that decodes (*DirSource, or a *CachedSource over
// one) decodes into sc, and the stream is then valid only until sc's next
// use; any other source answers as Stream(i) does and leaves sc alone.
func StreamInto(src Source, i int, sc *Scratch) (*Stream, error) {
	if ss, ok := src.(scratchSource); ok {
		return ss.StreamInto(i, sc)
	}
	return src.Stream(i)
}
