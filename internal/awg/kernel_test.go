package awg

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"tracescope/internal/sigset"
	"tracescope/internal/trace"
	"tracescope/internal/trace/tracetest"
	"tracescope/internal/waitgraph"
)

// refCell is one AWG node's aggregates; the reference keys cells by the
// node's whole path of refKeys.
type refCell struct {
	C, MaxC trace.Duration
	N       int64
}

// refKey names a node among its siblings injectively: its kind's letter
// and its signatures quoted, so a '|' or '/' inside a signature cannot
// make two nodes' keys, or two paths, equal.
func refKey(kind byte, sigs ...string) string {
	key := string(kind)
	for _, s := range sigs {
		key += strconv.Quote(s)
	}
	return key
}

// refAdd is the map-based reference fold Aggregator.Add must match: a
// per-graph seen set over (path, event) pairs, signatures resolved frame
// by frame, a key string built at every visit.
func refAdd(cells map[string]*refCell, g *waitgraph.Graph, f *trace.ComponentFilter, maxDepth int) {
	type pathEvent struct {
		path  string
		event trace.EventID
	}
	seen := make(map[pathEvent]bool)
	var walk func(n *waitgraph.Node, path string, depth int)
	walk = func(n *waitgraph.Node, path string, depth int) {
		if depth > maxDepth {
			return
		}
		sig, ok := f.TopSignature(g.Stream, n.Stack)
		var key string
		switch {
		case n.Type == trace.Wait && !ok:
			for _, c := range n.Children {
				walk(c, path, depth+1)
			}
			return
		case n.Type == trace.Wait:
			usig := ""
			if u, ok := f.TopSignature(g.Stream, n.UnwaitStack); ok {
				usig = u
			} else if frames := g.Stream.StackStrings(n.UnwaitStack); len(frames) > 0 {
				usig = frames[0]
				for _, fr := range frames {
					if !strings.HasPrefix(fr, "kernel!") {
						usig = fr
						break
					}
				}
			}
			if !n.HasUnwait {
				usig = ""
			}
			key = refKey('w', sig, usig)
		case n.Type == trace.Running && ok:
			key = refKey('r', sig)
		case n.Type == trace.HardwareService:
			key = refKey('h', sigset.HardwareSignature)
		default:
			return
		}
		path += "/" + key
		if pe := (pathEvent{path, n.Event}); !seen[pe] {
			seen[pe] = true
			cell := cells[path]
			if cell == nil {
				cell = &refCell{}
				cells[path] = cell
			}
			cell.C += n.Cost
			cell.N++
			cell.MaxC = max(cell.MaxC, n.Cost)
		}
		for _, c := range n.Children {
			walk(c, path, depth+1)
		}
	}
	for _, r := range g.Roots {
		walk(r, "", 0)
	}
}

// flatten renders a forest in the reference's path-keyed form.
func flatten(g *Graph) map[string]*refCell {
	out := make(map[string]*refCell)
	var walk func(n *tnode, path string)
	walk = func(n *tnode, path string) {
		if n.Kind == Waiting {
			path += "/" + refKey('w', n.WaitSig, n.UnwaitSig)
		} else {
			path += "/" + refKey(n.Key()[0], n.RunSig)
		}
		out[path] = &refCell{C: n.C, N: n.N, MaxC: n.MaxC}
		for _, c := range n.kids {
			walk(c, path)
		}
	}
	for _, r := range tree(g) {
		walk(r, "")
	}
	return out
}

// randomGraphs builds every instance graph of two random streams of
// different sizes, interleaved so a fold switches streams at almost
// every step.
func randomGraphs(seed int64, opts waitgraph.Options) []*waitgraph.Graph {
	small := tracetest.RandomStream(seed, 3, 9)
	large := tracetest.RandomStream(seed+100, 7, 60)
	bs, bl := waitgraph.NewBuilder(small, 0, opts), waitgraph.NewBuilder(large, 1, opts)
	var out []*waitgraph.Graph
	for i := range large.Instances {
		out = append(out, bl.Instance(large.Instances[i]))
		if i < len(small.Instances) {
			out = append(out, bs.Instance(small.Instances[i]))
		}
	}
	return out
}

// TestAggregatorMatchesReference folds two streams' graphs alternately
// into two aggregators sharing one resolver (as a core fold does), each
// taking every other graph plus a common third, and compares both
// forests with the reference's. Diamonds make one event reach the same
// AWG node twice (deduplicated) and two different AWG nodes (both
// counted); a small AWG MaxDepth cuts paths short, and a Wait-Graph
// MaxDepth of 2 leaves shared subtrees cut off mid-way.
func TestAggregatorMatchesReference(t *testing.T) {
	filter := trace.AllDrivers()
	for seed := int64(1); seed <= 30; seed++ {
		for _, cfg := range []struct{ wgDepth, awgDepth int }{{0, 32}, {2, 32}, {0, 2}} {
			fc := trace.NewFilterCache(filter)
			opts := Options{MaxDepth: cfg.awgDepth}
			ags := []*Aggregator{NewAggregatorOn(fc, opts), NewAggregatorOn(fc, opts)}
			want := []map[string]*refCell{{}, {}}
			for i, g := range randomGraphs(seed, waitgraph.Options{MaxDepth: cfg.wgDepth}) {
				for k := range ags {
					if i%3 == k || i%3 == 2 {
						ags[k].Add(g)
						refAdd(want[k], g, filter, cfg.awgDepth)
					}
				}
			}
			for k := range ags {
				if got := flatten(ags[k].Finish()); !reflect.DeepEqual(got, want[k]) {
					t.Fatalf("seed %d %+v aggregator %d: forest differs from the reference\n got %d nodes\nwant %d nodes",
						seed, cfg, k, len(got), len(want[k]))
				}
				if len(want[k]) == 0 {
					t.Fatalf("seed %d: empty reference forest", seed)
				}
			}
		}
	}
}

// TestAggregatorAddAllocs: within one stream's fold, adding a graph
// whose AWG nodes all exist allocates nothing — the dedup set is the
// aggregator's, and a child lookup that hits builds no node and no key
// string.
func TestAggregatorAddAllocs(t *testing.T) {
	s := tracetest.RandomStream(5, 7, 60)
	b := waitgraph.NewBuilder(s, 0, waitgraph.Options{})
	var graphs []*waitgraph.Graph
	for _, in := range s.Instances {
		graphs = append(graphs, b.Instance(in))
	}
	ag := NewAggregator(trace.AllDrivers(), Options{})
	fold := func() {
		for _, g := range graphs {
			ag.Add(g)
		}
	}
	fold()
	if ag.Partial().NumNodes() == 0 {
		t.Fatal("empty forest")
	}
	if n := testing.AllocsPerRun(10, fold); n != 0 {
		t.Errorf("warmed Add fold: %v allocs per %d graphs, want 0", n, len(graphs))
	}
}

// refPool is the frame pool FuzzAggregatorMatchesReference's forests
// draw signatures from: driver frames whose functions hold a '|', so
// that ("a|b", "c") and ("a", "b|c") are both spellable, and a frame of
// no driver, which makes a wait transparent or an unwait fall back.
var refPool = []string{
	"a.sys!A",
	"b.sys!B",
	"c.sys!C",
	"a.sys!A|b.sys!B",
	"b.sys!B|c.sys!C",
	"App!Main",
}

// fuzzGraphs turns bytes into up to eight Wait Graphs over refPool:
// wait, running and hardware nodes, and now and then a node built
// before reused as a child, so that one event is reached twice.
func fuzzGraphs(data []byte) []*waitgraph.Graph {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	f := newFixture()
	var built []*waitgraph.Node
	var build func(depth int) *waitgraph.Node
	build = func(depth int) *waitgraph.Node {
		op, cost := next(), trace.Duration(1+next()%40)*ms
		var n *waitgraph.Node
		switch {
		case op%5 < 2 && depth < 5:
			wait := f.stack("kernel!Wait", refPool[next()%len(refPool)])
			unwait := f.stack("kernel!Signal", refPool[next()%len(refPool)])
			kids := make([]*waitgraph.Node, next()%4)
			for i := range kids {
				kids[i] = build(depth + 1)
			}
			n = f.waitNode(cost, wait, unwait, kids...)
		case op%5 == 2 && len(built) > 0:
			return built[next()%len(built)]
		case op%5 == 3:
			n = f.node(trace.HardwareService, cost, f.stack("disk!Service"))
		default:
			n = f.node(trace.Running, cost, f.stack(refPool[next()%len(refPool)]))
		}
		built = append(built, n)
		return n
	}
	var graphs []*waitgraph.Graph
	for i := 0; i < 8 && len(data) > 0; i++ {
		graphs = append(graphs, f.graph(build(0)))
	}
	return graphs
}

// FuzzAggregatorMatchesReference: on any graphs over signatures that
// hold '|', two aggregators taking every other graph, and the merge of
// both, match the reference's forests, and lay their nodes out in Key
// order (checkLayout).
func FuzzAggregatorMatchesReference(f *testing.F) {
	f.Add([]byte{0, 5, 3, 4, 2, 1, 7, 0, 1, 2, 1, 4, 0, 9, 3, 3, 2, 8, 0, 1, 4, 0, 2, 5})
	f.Add([]byte{1, 9, 0, 3, 3, 0, 2, 4, 1, 0, 4, 3, 2, 2, 1, 0, 0, 7, 4, 1, 3, 2, 6, 0, 2})
	filter := trace.AllDrivers()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			return
		}
		graphs := fuzzGraphs(data)
		ags := []*Aggregator{NewAggregator(filter, Options{}), NewAggregator(filter, Options{})}
		want := []map[string]*refCell{{}, {}, {}}
		for i, g := range graphs {
			ags[i%2].Add(g)
			refAdd(want[i%2], g, filter, 32)
			refAdd(want[2], g, filter, 32)
		}
		merged := NewAggregator(filter, Options{})
		merged.Merge(ags[0].Partial())
		merged.Merge(ags[1].Partial())
		for k, ag := range append(ags, merged) {
			g := ag.Finish()
			checkLayout(t, g)
			if got := flatten(g); !reflect.DeepEqual(got, want[k]) {
				t.Fatalf("aggregator %d: %d nodes differ from the reference's %d", k, len(got), len(want[k]))
			}
		}
	})
}

// TestCompareKeysMatchesKeyOrder: the sibling order Finish lays out is
// the byte order of the nodes' Keys, including where a signature is a
// prefix of another ('|' sorts after '.', letters and digits), and
// nodes whose Keys are equal are ordered by WaitSig.
func TestCompareKeysMatchesKeyOrder(t *testing.T) {
	nodes := []Node{
		{Kind: Waiting, WaitSig: "fs.sys!Read", UnwaitSig: "fs.sys!Release"},
		{Kind: Waiting, WaitSig: "fs.sys!ReadEx", UnwaitSig: "a.sys!A"},
		{Kind: Waiting, WaitSig: "fs.sys!Read.1"},
		{Kind: Waiting, WaitSig: "fs.sys!Read"},
		{Kind: Waiting, WaitSig: "a.sys!A|b.sys!B", UnwaitSig: "c.sys!C"},
		{Kind: Waiting, WaitSig: "a.sys!A", UnwaitSig: "b.sys!B|c.sys!C"},
		{Kind: Waiting, WaitSig: "a.sys!A", UnwaitSig: "b.sys!B"},
		{Kind: Running, RunSig: "se.sys!Decrypt"},
		{Kind: Running, RunSig: "se.sys!Decrypt2"},
		{Kind: Hardware, RunSig: sigset.HardwareSignature},
	}
	for i := range nodes {
		for j := range nodes {
			a, b := &nodes[i], &nodes[j]
			want := strings.Compare(a.Key(), b.Key())
			if want == 0 {
				want = strings.Compare(a.WaitSig, b.WaitSig)
			}
			if got := compareKeys(a, b); got != want {
				t.Errorf("compareKeys(%q, %q) = %d, want %d", a.Key(), b.Key(), got, want)
			}
		}
	}
}

// TestSiblingKeysAreNodeKeys: every entry of an open forest's lookup
// names its node by the node's own parent and signatures, and every node
// has one, in a forest built by Add, by Merge of partial forests and by
// Clone, whose lookup is built at its first use; Finish drops the
// lookup.
func TestSiblingKeysAreNodeKeys(t *testing.T) {
	graphs := caseGraphs(t)
	check := func(label string, g *Graph) {
		if len(g.index) != len(g.nodes) {
			t.Errorf("%s: %d lookup entries for %d nodes", label, len(g.index), len(g.nodes))
		}
		for k, i := range g.index {
			if n := &g.nodes[i]; n.keyUnder(n.parent) != k {
				t.Errorf("%s: node %q under %d filed as %+v", label, n.Key(), n.parent, k)
			}
		}
	}
	half := NewAggregator(trace.AllDrivers(), Options{})
	for _, wg := range graphs[:len(graphs)/2] {
		half.Add(wg)
	}
	ag := NewAggregator(trace.AllDrivers(), DefaultOptions())
	for _, wg := range graphs[len(graphs)/2:] {
		ag.Add(wg)
	}
	check("add", ag.Partial())
	ag.Merge(half.Partial())
	check("merge", ag.Partial())
	clone := ag.Partial().Clone()
	if n := &clone.nodes[3]; clone.child(n.keyUnder(n.parent)) != 3 {
		t.Error("a clone's lookup misses its node")
	}
	check("clone", clone)
	if g := ag.Finish(); g.index != nil {
		t.Error("a finished graph keeps its lookup")
	}
}
