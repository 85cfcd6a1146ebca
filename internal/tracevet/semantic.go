// Semantic conservation cross-checks: invariants the analysis layer
// guarantees by construction, re-derived independently per corpus. A
// violation here never means "the trace is odd" — it means the corpus
// breaks an identity the impact and AWG pipelines rely on, so their
// numbers over this data cannot be trusted (or the analysis layer
// itself has regressed). These rules decode every stream and build
// wait graphs, so they run only with Options.Semantic set, and only
// after the structural rules pass clean of errors.

package tracevet

import (
	"fmt"
	"strconv"
	"strings"

	"tracescope/internal/awg"
	"tracescope/internal/diag"
	"tracescope/internal/impact"
	"tracescope/internal/trace"
	"tracescope/internal/waitgraph"
)

// semanticFilter selects every component: conservation identities are
// filter-independent, and the all-matching filter maximises the wait
// mass they cover.
func semanticFilter() *trace.ComponentFilter { return trace.NewComponentFilter("*") }

// vetSemantic runs the analysis-layer conservation rules over a source
// whose structural rules passed, in one stream-major pass: each stream
// is fetched once, each instance's Wait Graph is built once, measured
// once and feeds its scenario's conserveCheck, and the stream is dropped
// before the next is fetched — what stays resident is per-scenario
// aggregates.
// Findings are positioned on the stream artifact (per-instance checks)
// or on the synthetic "corpus" artifact (per-scenario aggregate
// checks) and come out scenario by scenario, in src.Scenarios() order.
// Identities checked over part of a corpus prove nothing, so if a
// stream cannot be fetched that failure is the only finding.
func vetSemantic(src trace.Source, opts Options) []diag.Diagnostic {
	checkImpact := opts.enabled("impact-conserve")
	checkAWG := opts.enabled("awg-conserve")
	if !checkImpact && !checkAWG {
		return nil
	}
	// One resolver for every consumer of the pass, forgotten at each
	// stream's end so it never keeps the stream alive (DESIGN.md §10).
	fc := trace.NewFilterCache(semanticFilter())
	checks := make(map[string]*conserveCheck)
	var open []*conserveCheck // checks holding a shard of the current stream
	var waits []impact.Wait   // the measurement buffer

	err := impact.GraphsOver(src, src.InstancesOf(""), func(ref trace.InstanceRef, g *waitgraph.Graph, last bool) {
		meta := src.InstanceMeta(ref)
		c := checks[meta.Scenario]
		if c == nil {
			c = newConserveCheck(fc)
			checks[meta.Scenario] = c
		}
		if checkImpact {
			m := impact.Measure(g, fc, waits)
			waits = m.Waits
			c.addImpact(src, ref, meta, m)
		}
		if checkAWG {
			if c.shard == nil {
				c.shard = awg.NewAggregatorOn(fc, awg.Options{})
				open = append(open, c)
			}
			c.seq.Add(g)
			c.shard.Add(g)
		}
		if last {
			for _, c := range open {
				c.merged.Merge(c.shard.Partial())
				c.shard = nil
			}
			open = open[:0]
			fc.Forget()
		}
	})
	if err != nil {
		return []diag.Diagnostic{vd("corpus", 1, "impact-conserve", diag.SevError,
			"semantic phase could not fetch every stream: %v", err)}
	}
	var diags []diag.Diagnostic
	for _, sc := range src.Scenarios() {
		if c := checks[sc.Name]; c != nil {
			diags = append(diags, c.findings(sc.Name)...)
		}
	}
	return diags
}

// conserveCheck is one scenario's state in the semantic pass. A rule
// that is off feeds nothing in, and empty state yields no finding.
type conserveCheck struct {
	// impact-conserve: the partial over every instance of the scenario,
	// and the per-instance findings in ref order.
	whole     *impact.Partial
	instances []diag.Diagnostic
	// awg-conserve: the sequential aggregate of every graph in ref
	// order, the per-stream shards merged in stream order, and the
	// current stream's shard (nil between streams).
	seq, merged, shard *awg.Aggregator
}

func newConserveCheck(fc *trace.FilterCache) *conserveCheck {
	return &conserveCheck{
		whole:  impact.NewPartial(),
		seq:    awg.NewAggregatorOn(fc, awg.Options{}),
		merged: awg.NewAggregatorOn(fc, awg.Options{}),
	}
}

// addImpact folds one instance's measurement into the scenario's partial
// and checks the per-instance identity on the measurement itself:
// Dwaitdist <= wall time (distinct waits are counted once and each is
// bounded by the window that contains it) — within one graph every
// counted wait is distinct, so the instance's Dwaitdist is its Dwait.
func (c *conserveCheck) addImpact(src trace.Source, ref trace.InstanceRef, meta trace.Instance, m impact.Measurement) {
	c.whole.Add(m)
	if wall := meta.Duration(); m.Dwait > wall {
		c.instances = append(c.instances, vd(streamArtifact(src, ref.Stream), ref.Instance+1, "impact-conserve", diag.SevError,
			"scenario %q instance %d of stream %d: distinct wait %d exceeds the instance's wall time %d",
			meta.Scenario, ref.Instance, ref.Stream, int64(m.Dwait), int64(wall)))
	}
}

// findings emits the scenario's findings once the pass is over, impact
// before AWG. Scenario-wide, impact conserves when Dwaitdist <= Dwait
// (equivalently IAopt <= IAwait — the distinct-wait set is a subset of
// the counted waits) and no aggregate is negative; the AWG conserves
// when the per-stream sharded aggregation serializes identically to the
// sequential aggregate — the merge operations are commutative and
// associative by design, and this rule re-proves it on real data.
func (c *conserveCheck) findings(scenario string) []diag.Diagnostic {
	var diags []diag.Diagnostic
	whole := c.whole.Metrics
	if whole.Dwaitdist > whole.Dwait {
		diags = append(diags, vd("corpus", 1, "impact-conserve", diag.SevError,
			"scenario %q: Dwaitdist %d exceeds Dwait %d (IAopt > IAwait)",
			scenario, int64(whole.Dwaitdist), int64(whole.Dwait)))
	}
	if whole.Dscn < 0 || whole.Dwait < 0 || whole.Drun < 0 || whole.Dwaitdist < 0 {
		diags = append(diags, vd("corpus", 1, "impact-conserve", diag.SevError,
			"scenario %q: negative impact aggregate (Dscn=%d Dwait=%d Drun=%d Dwaitdist=%d)",
			scenario, int64(whole.Dscn), int64(whole.Dwait), int64(whole.Drun), int64(whole.Dwaitdist)))
	}
	diags = append(diags, c.instances...)

	want := serializeForest(c.seq.Finish())
	got := serializeForest(c.merged.Finish())
	if want != got {
		diags = append(diags, vd("corpus", 1, "awg-conserve", diag.SevError,
			"scenario %q: per-stream sharded AWG aggregation disagrees with the sequential aggregate (%s)",
			scenario, forestDiffHint(want, got)))
	}
	return diags
}

// streamArtifact names stream i for finding positions.
func streamArtifact(src trace.Source, i int) string {
	if f := src.StreamMeta(i).File; f != "" {
		return f
	}
	return fmt.Sprintf("stream[%d]", i)
}

// serializeForest renders an AWG forest as deterministic text: one line
// per node, in the finished forest's pre-order over key-sorted children.
func serializeForest(g *awg.Graph) string {
	var b strings.Builder
	nodes := g.Nodes()
	var walk func(i, end int32, depth int)
	walk = func(i, end int32, depth int) {
		for ; i < end; i = nodes[i].End() {
			n := &nodes[i]
			b.WriteString(strconv.Itoa(depth))
			b.WriteByte('|')
			b.WriteString(n.Key())
			fmt.Fprintf(&b, "|C=%d|N=%d|MaxC=%d\n", int64(n.C), n.N, int64(n.MaxC))
			walk(i+1, n.End(), depth+1)
		}
	}
	walk(0, int32(len(nodes)), 0)
	return b.String()
}

// forestDiffHint points at the first serialized line where two forests
// diverge, keeping the finding message bounded.
func forestDiffHint(want, got string) string {
	wl := strings.Split(want, "\n")
	gl := strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("first divergence at node line %d: sequential %q, sharded %q", i+1, w, g)
		}
	}
	return "forests identical" // unreachable when called on inequality
}
