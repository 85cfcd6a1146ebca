package trace

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"tracescope/internal/trace/colfmt"
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

// WriteDir persists the corpus: one columnar binary file per stream,
// the corpus.intern frame/stack container, and a corpus.index recording
// per-stream and per-instance metadata, creating dir if needed. The
// index lets OpenDir enumerate scenarios and instances without decoding
// any stream.
func (c *Corpus) WriteDir(dir string) error {
	return c.writeDir(dir, false)
}

// WriteDirCompressed is WriteDir with flate compression on every event
// block — smaller files at decode-throughput cost.
func (c *Corpus) WriteDirCompressed(dir string) error {
	return c.writeDir(dir, true)
}

// streamFileName names stream i's columnar container file.
func streamFileName(i int) string {
	return fmt.Sprintf("stream-%05d.tsc4", i)
}

func (c *Corpus) writeDir(dir string, compress bool) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	it := NewInternTable()
	enc := colfmt.NewEncoder(eventColumns)
	metas := make([]StreamMeta, 0, len(c.Streams))
	for i, s := range c.Streams {
		name := streamFileName(i)
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		err = s.writeBinaryV4(f, it, enc, compress)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("trace: writing %s: %w", name, err)
		}
		m := c.StreamMeta(i)
		m.File = name
		metas = append(metas, m)
	}
	f, err := os.Create(filepath.Join(dir, internFile))
	if err != nil {
		return err
	}
	err = it.writeInternFile(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace: writing %s: %w", internFile, err)
	}
	index, err := os.Create(filepath.Join(dir, indexFile))
	if err != nil {
		return err
	}
	err = writeIndex(index, metas)
	if cerr := index.Close(); err == nil {
		err = cerr
	}
	return err
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
