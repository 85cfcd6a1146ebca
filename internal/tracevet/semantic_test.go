package tracevet

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"tracescope/internal/diag"
	"tracescope/internal/scenario"
	"tracescope/internal/trace"
	"tracescope/internal/trace/tracetest"
	"tracescope/internal/waitgraph"
)

// TestVetSemanticStreamMajor: the semantic phase is one stream-major
// pass. Over a generated corpus it fetches each stream exactly once,
// has dropped a stream before it fetches the next — the source forces a
// collection at every fetch and never sees a second stream alive — and
// finds nothing, as the identities hold by construction.
func TestVetSemanticStreamMajor(t *testing.T) {
	corpus := scenario.Generate(scenario.Config{Seed: 5, Streams: 6, Episodes: 3})
	dir := t.TempDir()
	if err := corpus.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	dirSrc, err := trace.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	src := &tracetest.LiveSource{Source: dirSrc}
	if diags := vetSemantic(src, Options{Semantic: true}); len(diags) != 0 {
		t.Errorf("semantic pass flagged a generated corpus: %v", diags)
	}
	want := make(map[int]int)
	for i := 0; i < src.NumStreams(); i++ {
		want[i] = 1
	}
	if got := src.Fetches; !reflect.DeepEqual(got, want) {
		t.Errorf("fetches per stream %v, want each once: %v", got, want)
	}
	if n := src.MaxLive; n != 1 {
		t.Errorf("%d decoded streams were alive at once, want 1: a stream must be dropped before the next is fetched", n)
	}
	if live := src.Settle(); live != 0 {
		t.Errorf("the pass returned and %d decoded streams are still referenced", live)
	}
}

// skewedSource reports every instance as one tick long, so each
// instance's distinct wait exceeds its wall time and impact-conserve
// fires per instance — the identities cannot be broken by a corpus the
// pipeline itself wrote. Fetching stream lost fails.
type skewedSource struct {
	trace.Source
	lost int
}

func (s skewedSource) InstanceMeta(ref trace.InstanceRef) trace.Instance {
	in := s.Source.InstanceMeta(ref)
	in.End = in.Start + 1
	return in
}

func (s skewedSource) Stream(i int) (*trace.Stream, error) {
	if i == s.lost {
		return nil, errors.New("stream file is gone")
	}
	return s.Source.Stream(i)
}

// twoScenarioCorpus holds n streams with one instance each of "A" and
// "B", in that order.
func twoScenarioCorpus(n int) *trace.Corpus {
	var streams []*trace.Stream
	for i := 0; i < n; i++ {
		s := goodStream(fmt.Sprintf("m%d", i))
		s.Instances[0].Scenario = "B"
		s.Instances = append([]trace.Instance{{Scenario: "A", TID: 1, Start: 0, End: 180}}, s.Instances...)
		streams = append(streams, s)
	}
	return trace.NewCorpus(streams...)
}

// TestVetSemanticFindingOrder: the pass meets instances stream by
// stream but reports scenario by scenario — src.Scenarios() order, each
// scenario's instances in ref order, impact before AWG.
func TestVetSemanticFindingOrder(t *testing.T) {
	diags := vetSemantic(skewedSource{Source: twoScenarioCorpus(3), lost: -1}, Options{Semantic: true})
	var got []string
	for _, d := range diags {
		got = append(got, fmt.Sprintf("%s:%d %s", d.Pos.Filename, d.Pos.Line, d.Message[:len(`scenario "A"`)]))
	}
	want := []string{
		`stream[0]:1 scenario "A"`, `stream[1]:1 scenario "A"`, `stream[2]:1 scenario "A"`,
		`stream[0]:2 scenario "B"`, `stream[1]:2 scenario "B"`, `stream[2]:2 scenario "B"`,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("finding order:\n  got  %q\n  want %q", got, want)
	}

	// One scenario's findings: the scenario-wide impact identities, then
	// its instances, then the AWG identity.
	fc := trace.NewFilterCache(semanticFilter())
	c := newConserveCheck(fc)
	c.whole.Dwait, c.whole.Dwaitdist = 1, 2
	c.instances = []diag.Diagnostic{vd("stream[0]", 1, "impact-conserve", diag.SevError, "an instance")}
	s := goodStream("m")
	c.seq.Add(waitgraph.NewBuilder(s, 0, waitgraph.Options{}).Instance(s.Instances[0])) // and no shard merged
	var rules []string
	for _, d := range c.findings("S") {
		rules = append(rules, d.Analyzer+" "+d.Pos.Filename)
	}
	if want := []string{"impact-conserve corpus", "impact-conserve stream[0]", "awg-conserve corpus"}; !reflect.DeepEqual(rules, want) {
		t.Errorf("one scenario's findings: got %q, want %q", rules, want)
	}
	if got := newConserveCheck(fc).findings("S"); len(got) != 0 {
		t.Errorf("a check nothing was fed into (its rules are off) found %v", got)
	}
}

// TestVetSemanticFetchError: identities checked over the part of a
// corpus that could be fetched prove nothing, so a fetch failure is the
// semantic phase's only finding — the violations it met on the way (one
// per instance here) are not reported.
func TestVetSemanticFetchError(t *testing.T) {
	diags := vetSemantic(skewedSource{Source: twoScenarioCorpus(3), lost: 2}, Options{Semantic: true})
	if len(diags) != 1 || diags[0].Severity != diag.SevError ||
		!strings.Contains(diags[0].Message, "semantic phase could not fetch every stream") ||
		!strings.Contains(diags[0].Message, "stream file is gone") {
		t.Fatalf("want the fetch failure alone, got %v", diags)
	}
}
