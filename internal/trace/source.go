package trace

import (
	"fmt"
	"sort"
)

// Source is the corpus-access seam the analysis layers run over: stream
// and instance metadata cheap enough to enumerate without decoding event
// payloads, plus on-demand fetch of individual streams. Three
// implementations exist:
//
//   - *Corpus: the in-memory corpus; Stream returns resident streams.
//   - *DirSource: a lazy directory-backed corpus; metadata comes from the
//     corpus.index file and Stream decodes one file on demand.
//   - *CachedSource: a wrapper adding a bounded LRU of decoded streams,
//     so repeated access over a lazy source stays out-of-core with peak
//     memory proportional to the cache limit, not the corpus size.
//
// A caller that reads each stream once and drops it — every analysis
// sweep — fetches through StreamInto instead of Stream: the lazy sources
// then decode into buffers the caller owns and reuses (Scratch), and the
// cache is consulted but not filled.
//
// Stream order is significant everywhere: EventIDs and InstanceRefs
// reference streams by index, so every implementation must present the
// same indexing for the same corpus.
type Source interface {
	// NumStreams returns the number of streams.
	NumStreams() int
	// NumInstances returns the total number of scenario instances.
	NumInstances() int
	// NumEvents returns the total number of events across all streams.
	NumEvents() int
	// TotalDuration sums the time spans of all streams.
	TotalDuration() Duration
	// Scenarios returns the sorted scenario names with instance counts.
	Scenarios() []ScenarioCount
	// InstancesOf returns references to every instance of the named
	// scenario, in stream-then-instance order. "" selects all instances.
	InstancesOf(scenario string) []InstanceRef
	// InstanceMeta resolves a reference to its instance record without
	// decoding the stream's events.
	InstanceMeta(ref InstanceRef) Instance
	// StreamMeta returns stream i's metadata without decoding events.
	// The returned Instances slice is shared and must not be modified.
	StreamMeta(i int) StreamMeta
	// Stream fetches (and for lazy sources, decodes) stream i.
	Stream(i int) (*Stream, error)
}

// StreamMeta is the per-stream metadata available without decoding event
// payloads — what the corpus.index records per stream.
type StreamMeta struct {
	// File is the backing file name relative to the corpus directory,
	// "" for in-memory streams.
	File string
	// ID names the stream (for example the originating machine).
	ID string
	// Events is the stream's event count.
	Events int
	// Duration is the time span covered by the stream's events.
	Duration Duration
	// Instances lists the scenario instances recorded in the stream.
	// Shared with the source; treat as read-only.
	Instances []Instance
}

// Stream returns stream i, satisfying Source. In-memory streams never
// fail to fetch.
func (c *Corpus) Stream(i int) (*Stream, error) {
	if i < 0 || i >= len(c.Streams) {
		return nil, fmt.Errorf("trace: stream %d out of range (%d streams)", i, len(c.Streams))
	}
	return c.Streams[i], nil
}

// StreamMeta returns stream i's metadata, satisfying Source. The
// Instances slice is shared with the stream; treat as read-only.
func (c *Corpus) StreamMeta(i int) StreamMeta {
	s := c.Streams[i]
	return StreamMeta{
		ID:        s.ID,
		Events:    len(s.Events),
		Duration:  s.Duration(),
		Instances: s.Instances,
	}
}

// InstanceMeta resolves a reference to its instance record, satisfying
// Source.
func (c *Corpus) InstanceMeta(ref InstanceRef) Instance {
	return c.Streams[ref.Stream].Instances[ref.Instance]
}

// scenarioCounts tallies sorted scenario counts over per-stream instance
// metadata (shared by the Source implementations).
func scenarioCounts(metas []StreamMeta) []ScenarioCount {
	counts := make(map[string]int)
	for _, m := range metas {
		for _, in := range m.Instances {
			counts[in.Scenario]++
		}
	}
	out := make([]ScenarioCount, 0, len(counts))
	for name, n := range counts {
		out = append(out, ScenarioCount{Name: name, Instances: n})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// instanceRefs enumerates references to the named scenario's instances
// over per-stream instance metadata. "" selects all instances.
func instanceRefs(metas []StreamMeta, scenario string) []InstanceRef {
	var out []InstanceRef
	for si, m := range metas {
		for ii, in := range m.Instances {
			if scenario == "" || in.Scenario == scenario {
				out = append(out, InstanceRef{Stream: si, Instance: ii})
			}
		}
	}
	return out
}
