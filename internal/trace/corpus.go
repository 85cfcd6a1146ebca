package trace

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Corpus is a collection of trace streams, the unit over which impact and
// causality analyses run. Stream order is significant: EventIDs reference
// streams by index.
type Corpus struct {
	Streams []*Stream
}

// NewCorpus builds a corpus over the given streams.
func NewCorpus(streams ...*Stream) *Corpus { return &Corpus{Streams: streams} }

// Add appends a stream and returns its index.
func (c *Corpus) Add(s *Stream) int {
	c.Streams = append(c.Streams, s)
	return len(c.Streams) - 1
}

// NumStreams returns the number of streams.
func (c *Corpus) NumStreams() int { return len(c.Streams) }

// NumInstances returns the total number of scenario instances recorded.
func (c *Corpus) NumInstances() int {
	n := 0
	for _, s := range c.Streams {
		n += len(s.Instances)
	}
	return n
}

// NumEvents returns the total number of events across all streams.
func (c *Corpus) NumEvents() int {
	n := 0
	for _, s := range c.Streams {
		n += len(s.Events)
	}
	return n
}

// TotalDuration sums the time spans of all streams.
func (c *Corpus) TotalDuration() Duration {
	var d Duration
	for _, s := range c.Streams {
		d += s.Duration()
	}
	return d
}

// Scenarios returns the sorted set of scenario names appearing in the
// corpus, with instance counts.
func (c *Corpus) Scenarios() []ScenarioCount {
	counts := make(map[string]int)
	for _, s := range c.Streams {
		for _, in := range s.Instances {
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

// ScenarioCount pairs a scenario name with its instance count.
type ScenarioCount struct {
	Name      string
	Instances int
}

// InstanceRef locates a scenario instance within a corpus.
type InstanceRef struct {
	Stream   int
	Instance int
}

// InstancesOf returns references to every instance of the named scenario.
// An empty name selects all instances.
func (c *Corpus) InstancesOf(scenario string) []InstanceRef {
	var out []InstanceRef
	for si, s := range c.Streams {
		for ii, in := range s.Instances {
			if scenario == "" || in.Scenario == scenario {
				out = append(out, InstanceRef{Stream: si, Instance: ii})
			}
		}
	}
	return out
}

// Instance resolves a reference.
func (c *Corpus) Instance(ref InstanceRef) (*Stream, Instance) {
	s := c.Streams[ref.Stream]
	return s, s.Instances[ref.Instance]
}

// Validate validates every stream.
func (c *Corpus) Validate() error {
	for i, s := range c.Streams {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("trace: corpus stream %d: %w", i, err)
		}
	}
	return nil
}

// WriteDir persists the corpus to dir, creating it if needed and
// replacing any corpus already there: it starts the directory over and
// appends every stream through an Appender — one columnar file per
// stream, and a corpus.index recording the frame/stack intern table and
// per-stream and per-instance metadata, which lets OpenDir enumerate
// scenarios and instances without decoding any stream. Every stream must
// validate (Stream.Validate).
func (c *Corpus) WriteDir(dir string) error {
	a, err := createAppender(dir)
	if err != nil {
		return err
	}
	for _, s := range c.Streams {
		if _, err := a.Append(s); err != nil {
			return err
		}
	}
	return nil
}

// streamFileName names stream i's columnar container file.
func streamFileName(i int) string {
	return fmt.Sprintf("stream-%05d.tsc4", i)
}

// StreamFileSeq is streamFileName's inverse: the sequence number of the
// stream whose file is called name, and whether name is one the Appender
// writes at all.
func StreamFileSeq(name string) (seq int, ok bool) {
	digits, _ := strings.CutPrefix(name, "stream-")
	digits, _ = strings.CutSuffix(digits, ".tsc4")
	seq, err := strconv.Atoi(digits)
	if err != nil || seq < 0 || streamFileName(seq) != name {
		return 0, false
	}
	return seq, true
}

// ReadDir loads a corpus previously written with WriteDir eagerly into
// memory. Index entries are validated (no duplicate or path-escaping
// file names) before any file is opened. For lazy, out-of-core access
// use OpenDir instead.
func ReadDir(dir string) (*Corpus, error) {
	d, err := OpenDir(dir)
	if err != nil {
		return nil, err
	}
	return d.Materialize()
}
