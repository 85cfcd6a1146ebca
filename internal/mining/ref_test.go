package mining

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"tracescope/internal/awg"
	"tracescope/internal/scenario"
	"tracescope/internal/sigset"
	"tracescope/internal/trace"
	"tracescope/internal/waitgraph"
)

// This file keeps the string implementation of segment enumeration and
// pattern lifting — a tuple built with sigset.New per path, keyed by
// Tuple.Key — as the reference the id-based walk in mining.go must
// reproduce exactly: the same segment count and cut-off point, the same
// metas, the same ranked patterns.

// refEnumerate is the reference EnumerateMetas.
func refEnumerate(g *awg.Graph, k, maxSegments int) (map[string]*Meta, int) {
	metas := make(map[string]*Meta)
	segments := 0

	var nodes []*awg.Node
	var collect func(n *awg.Node)
	collect = func(n *awg.Node) {
		nodes = append(nodes, n)
		for _, c := range n.Children() {
			collect(c)
		}
	}
	for _, r := range g.Roots() {
		collect(r)
	}

	var path []*awg.Node
	var walk func(n *awg.Node)
	walk = func(n *awg.Node) {
		if segments >= maxSegments {
			return
		}
		path = append(path, n)
		segments++
		if t := refTupleOf(path); !t.IsEmpty() {
			key := t.Key()
			m, ok := metas[key]
			if !ok {
				m = &Meta{Tuple: t}
				metas[key] = m
			}
			m.C += n.C
			m.N += n.N
			if n.MaxC > m.MaxC {
				m.MaxC = n.MaxC
			}
		}
		if len(path) < k {
			for _, c := range n.Children() {
				walk(c)
			}
		}
		path = path[:len(path)-1]
	}
	for _, start := range nodes {
		if segments >= maxSegments {
			break
		}
		walk(start)
	}
	return metas, segments
}

// refTupleOf builds the Signature Set Tuple of a node sequence.
func refTupleOf(path []*awg.Node) sigset.Tuple {
	var wait, unwait, running []string
	for _, n := range path {
		switch n.Kind {
		case awg.Waiting:
			wait = append(wait, n.WaitSig)
			if n.UnwaitSig != "" {
				unwait = append(unwait, n.UnwaitSig)
			}
		case awg.Running, awg.Hardware:
			running = append(running, n.RunSig)
		}
	}
	return sigset.New(wait, unwait, running)
}

// refDiscoverPatterns is the reference DiscoverPatterns.
func refDiscoverPatterns(slowGraph *awg.Graph, contrasts []Contrast) []Pattern {
	byKey := make(map[string]*Pattern)

	var path []*awg.Node
	var walk func(n *awg.Node)
	walk = func(n *awg.Node) {
		path = append(path, n)
		if len(n.Children()) == 0 {
			t := refTupleOf(path)
			if !t.IsEmpty() && refContainsAnyContrast(t, contrasts) {
				key := t.Key()
				p, ok := byKey[key]
				if !ok {
					p = &Pattern{Tuple: t}
					byKey[key] = p
				}
				p.C += n.C
				p.N += n.N
				if n.MaxC > p.MaxC {
					p.MaxC = n.MaxC
				}
				if root := path[0]; root.MaxC > p.MaxExec {
					p.MaxExec = root.MaxC
				}
			}
		} else {
			for _, c := range n.Children() {
				walk(c)
			}
		}
		path = path[:len(path)-1]
	}
	for _, r := range slowGraph.Roots() {
		walk(r)
	}

	out := make([]Pattern, 0, len(byKey))
	for _, p := range byKey {
		out = append(out, *p)
	}
	sort.Slice(out, func(i, j int) bool {
		ai, aj := out[i].AvgC(), out[j].AvgC()
		if ai != aj {
			return ai > aj
		}
		if out[i].C != out[j].C {
			return out[i].C > out[j].C
		}
		return out[i].Tuple.Key() < out[j].Tuple.Key()
	})
	return out
}

func refContainsAnyContrast(t sigset.Tuple, contrasts []Contrast) bool {
	for i := range contrasts {
		if t.Contains(contrasts[i].Meta.Tuple) {
			return true
		}
	}
	return false
}

// checkAgainstReference mines the class pair (slow, fast) with the
// implementation and with the reference at segment length k and cap
// maxSegments, and reports every difference: segment counts, metas by
// key, contrasts in order, ranked patterns field for field.
func checkAgainstReference(t *testing.T, label string, slow, fast *awg.Graph, k, maxSegments int, tfast, tslow trace.Duration) {
	t.Helper()
	slowMetas, segSlow := EnumerateMetas(slow, k, maxSegments)
	fastMetas, segFast := EnumerateMetas(fast, k, maxSegments)
	refSlow, refSegSlow := refEnumerate(slow, k, maxSegments)
	refFast, refSegFast := refEnumerate(fast, k, maxSegments)
	if segSlow != refSegSlow || segFast != refSegFast {
		t.Fatalf("%s: segments slow/fast = %d/%d, reference %d/%d", label, segSlow, segFast, refSegSlow, refSegFast)
	}
	for _, c := range []struct {
		class     string
		got, want map[string]*Meta
	}{{"slow", slowMetas, refSlow}, {"fast", fastMetas, refFast}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: %s metas = %d, reference %d", label, c.class, len(c.got), len(c.want))
		}
		for key, want := range c.want {
			if got, ok := c.got[key]; !ok || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: %s meta %q = %+v, reference %+v", label, c.class, key, got, want)
			}
		}
	}

	contrasts := DiscoverContrasts(slowMetas, fastMetas, tfast, tslow)
	refContrasts := DiscoverContrasts(refSlow, refFast, tfast, tslow)
	if len(contrasts) != len(refContrasts) {
		t.Fatalf("%s: contrasts = %d, reference %d", label, len(contrasts), len(refContrasts))
	}
	for i := range contrasts {
		got, want := contrasts[i], refContrasts[i]
		if got.SlowOnly != want.SlowOnly || got.Ratio != want.Ratio || !reflect.DeepEqual(got.Meta, want.Meta) {
			t.Fatalf("%s: contrast %d = %+v %+v, reference %+v %+v", label, i, got, got.Meta, want, want.Meta)
		}
	}

	patterns := DiscoverPatterns(slow, contrasts)
	refPatterns := refDiscoverPatterns(slow, refContrasts)
	if !reflect.DeepEqual(patterns, refPatterns) {
		t.Fatalf("%s: %d patterns differ from the reference's %d", label, len(patterns), len(refPatterns))
	}
}

// classForestsOnce holds the finished (reduced) slow and fast class
// forests of every catalogue scenario over the 48-stream corpus of
// EXPERIMENTS.md, aggregated the way the batch analysis does.
var classForestsOnce = sync.OnceValue(func() []classPair {
	corpus := scenario.Generate(scenario.Config{Seed: 1, Streams: 48, Episodes: 14})
	filter := trace.AllDrivers()
	fc := trace.NewFilterCache(filter)
	type class struct {
		tf, ts     trace.Duration
		slow, fast *awg.Aggregator
	}
	classes := make(map[string]*class)
	for _, name := range scenario.Selected() {
		tf, ts, _ := scenario.Thresholds(name)
		classes[name] = &class{
			tf: tf, ts: ts,
			slow: awg.NewAggregatorOn(fc, awg.Options{}),
			fast: awg.NewAggregatorOn(fc, awg.Options{}),
		}
	}
	for si, s := range corpus.Streams {
		b := waitgraph.NewBuilder(s, si, waitgraph.Options{})
		for _, in := range s.Instances {
			c := classes[in.Scenario]
			if c == nil {
				continue
			}
			switch d := in.Duration(); {
			case d < c.tf:
				c.fast.Add(b.Instance(in))
			case d > c.ts:
				c.slow.Add(b.Instance(in))
			}
		}
		fc.Forget()
	}
	finish := func(part *awg.Aggregator) *awg.Graph {
		final := awg.NewAggregator(filter, awg.DefaultOptions())
		final.Merge(part.Partial())
		return final.Finish()
	}
	var out []classPair
	for _, name := range scenario.Selected() {
		c := classes[name]
		out = append(out, classPair{name: name, tf: c.tf, ts: c.ts, slow: finish(c.slow), fast: finish(c.fast)})
	}
	return out
})

type classPair struct {
	name       string
	tf, ts     trace.Duration
	slow, fast *awg.Graph
}

// TestMiningMatchesReference: over the slow and fast class forests of
// every catalogue scenario, the implementation and the reference agree
// at every segment length and cap. A cap cuts the walk at a position,
// so equal results under a cap also pin the visit order.
func TestMiningMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus generation in -short mode")
	}
	for _, cp := range classForestsOnce() {
		if cp.slow.NumNodes() == 0 || cp.fast.NumNodes() == 0 {
			t.Fatalf("%s: empty class forest (slow %d nodes, fast %d)", cp.name, cp.slow.NumNodes(), cp.fast.NumNodes())
		}
		for _, k := range []int{1, 2, 3, 5, 8} {
			for _, maxSegments := range []int{1, 7, 300, 0} {
				p := Params{K: k, MaxSegments: maxSegments}
				p.ApplyDefaults()
				label := fmt.Sprintf("%s/k=%d/max=%d", cp.name, k, p.MaxSegments)
				checkAgainstReference(t, label, cp.slow, cp.fast, p.K, p.MaxSegments, cp.tf, cp.ts)
			}
		}
	}
}

// refDescribe is the fmt form of Pattern.Describe, kept as its oracle.
func refDescribe(p Pattern) string {
	var b strings.Builder
	list := func(items []string, empty string) {
		if len(items) == 0 {
			b.WriteString(empty)
			return
		}
		b.WriteString(strings.Join(items, ", "))
	}
	b.WriteString("the cost of ")
	list(p.Tuple.Running, "the measured components")
	b.WriteString(" is propagated through ")
	list(p.Tuple.Unwait, "direct wake-ups")
	b.WriteString(" to threads blocked in ")
	list(p.Tuple.Wait, "the scenario")
	fmt.Fprintf(&b, " (avg %v per occurrence, %d occurrences)", p.AvgC(), p.N)
	return b.String()
}

// TestDescribeMatchesFmt: Describe, and AppendDescribe after whatever a
// buffer already holds, write what the fmt form wrote, for every ranked
// pattern of every catalogue scenario and for empty sets and counts.
func TestDescribeMatchesFmt(t *testing.T) {
	patterns := []Pattern{{}, {N: 3, C: 7}, {Tuple: sigset.New([]string{"a"}, nil, []string{"b", "c"}), N: 1, C: 2 * trace.Second}}
	for _, c := range classForestsOnce() {
		slow, _ := EnumerateMetas(c.slow, 5, 4_000_000)
		fast, _ := EnumerateMetas(c.fast, 5, 4_000_000)
		patterns = append(patterns, DiscoverPatterns(c.slow, DiscoverContrasts(slow, fast, c.tf, c.ts))...)
	}
	buf := []byte("prefix ")
	for _, p := range patterns {
		want := refDescribe(p)
		if got := p.Describe(); got != want {
			t.Fatalf("Describe = %q, fmt %q", got, want)
		}
		if got := string(p.AppendDescribe(buf)); got != "prefix "+want {
			t.Fatalf("AppendDescribe = %q, want %q", got, "prefix "+want)
		}
	}
	if len(patterns) < 50 {
		t.Fatalf("only %d patterns described", len(patterns))
	}
}
