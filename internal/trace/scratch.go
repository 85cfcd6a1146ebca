package trace

import (
	"unsafe"

	"tracescope/internal/trace/colfmt"
)

// Scratch is the complete buffer set one stream decode fills, of a TSC4
// file or (inside an Upload) a TSCP body: the raw bytes, the
// event/frame/stack/instance slices, the stack arena backing every
// stack's frame list, the thread map, the global→local scratch and the
// colfmt column decoder. Its owner — one engine worker,
// one stream-major walk — passes it to StreamInto for every stream it
// fetches, so a sweep decodes into the same memory from first stream to
// last. The zero value is ready to use; not safe for concurrent use.
//
// The contract (DESIGN.md §10): a stream decoded into a Scratch, and
// everything reachable from it — events, stack slices, instance records,
// the thread map — is valid only until the Scratch's next decode.
// Strings are exempt: a TSC4 file's frames live in the corpus
// InternTable, and every other string is the stream's own.
type Scratch struct {
	raw          []byte
	events       []Event
	frames       []string
	frameGlobals []FrameID // local frame table as global IDs (g2l reset list)
	stackGlobals []StackID // local stack table as global IDs
	stacks       [][]FrameID
	arena        []FrameID           // backing store for stacks' frame lists
	stackEnds    []int               // TSCP: where each stack's frames end in arena
	frameSet     map[string]struct{} // TSCP: the frames decoded so far
	instances    []Instance
	threads      map[ThreadID]ThreadInfo
	g2l          []FrameID // global frame ID → local, -1 when absent
	dec          *colfmt.Decoder
	// mapPeak is the most entries a decode has declared for threads or
	// frameSet. clear does not shrink a map, so this, not len, is what
	// the maps hold.
	mapPeak int
}

// retained returns the bytes b's buffers hold, which whoever keeps b for
// a later decode keeps with it. The strings a decode copies out of raw
// are no longer than raw, so raw is counted twice.
func (b *Scratch) retained() int {
	n := 2*cap(b.raw) +
		cap(b.events)*int(unsafe.Sizeof(Event{})) +
		cap(b.frames)*int(unsafe.Sizeof("")) +
		(cap(b.frameGlobals)+cap(b.arena)+cap(b.g2l))*int(unsafe.Sizeof(FrameID(0))) +
		cap(b.stackGlobals)*int(unsafe.Sizeof(StackID(0))) +
		cap(b.stacks)*int(unsafe.Sizeof([]FrameID(nil))) +
		cap(b.stackEnds)*int(unsafe.Sizeof(0)) +
		cap(b.instances)*int(unsafe.Sizeof(Instance{})) +
		// A threads and a frameSet entry per mapPeak, each up to twice
		// its key and value: a table is between 7/16 and 7/8 full.
		b.mapPeak*2*int(unsafe.Sizeof(ThreadID(0))+unsafe.Sizeof(ThreadInfo{})+unsafe.Sizeof(""))
	if b.dec != nil {
		n += b.dec.Retained()
	}
	return n
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
