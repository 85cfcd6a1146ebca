package awg

import (
	"bytes"
	"strings"
	"testing"

	"tracescope/internal/sigset"
	"tracescope/internal/trace"
	"tracescope/internal/waitgraph"
)

const ms = trace.Millisecond

// fixture builds a stream with interned stacks and helpers to hand-craft
// Wait-Graph nodes over it.
type fixture struct {
	s    *trace.Stream
	next int
}

func newFixture() *fixture { return &fixture{s: trace.NewStream("f")} }

func (f *fixture) stack(frames ...string) trace.StackID {
	return f.s.InternStackStrings(frames...)
}

func (f *fixture) node(typ trace.EventType, cost trace.Duration, stack trace.StackID, children ...*waitgraph.Node) *waitgraph.Node {
	f.next++
	n := &waitgraph.Node{
		Event:    trace.EventID{Stream: 0, Index: f.next},
		Type:     typ,
		Cost:     cost,
		TID:      1,
		Stack:    stack,
		Children: children,
	}
	return n
}

func (f *fixture) waitNode(cost trace.Duration, waitStack, unwaitStack trace.StackID, children ...*waitgraph.Node) *waitgraph.Node {
	n := f.node(trace.Wait, cost, waitStack, children...)
	n.HasUnwait = true
	n.UnwaitStack = unwaitStack
	return n
}

func (f *fixture) graph(roots ...*waitgraph.Node) *waitgraph.Graph {
	return &waitgraph.Graph{Stream: f.s, StreamIndex: 0, Roots: roots}
}

// tnode is a node of a test's pointer view of a forest.
type tnode struct {
	*Node
	kids []*tnode
}

// tree reads g's laid-out slab (Graph.Nodes) into that view: its roots,
// each with its children in order.
func tree(g *Graph) []*tnode {
	nodes := g.Nodes()
	var level func(i, end int32) []*tnode
	level = func(i, end int32) []*tnode {
		var out []*tnode
		for ; i < end; i = nodes[i].end {
			out = append(out, &tnode{Node: &nodes[i], kids: level(i+1, nodes[i].end)})
		}
		return out
	}
	return level(0, int32(len(nodes)))
}

func TestAggregateSingleChain(t *testing.T) {
	f := newFixture()
	wStack := f.stack("kernel!AcquireLock", "fv.sys!Query", "App!Main")
	uStack := f.stack("kernel!ReleaseLock", "fv.sys!Query", "App!Other")
	rStack := f.stack("se.sys!Decrypt", "kernel!Worker")

	run := f.node(trace.Running, 2*ms, rStack)
	root := f.waitNode(10*ms, wStack, uStack, run)
	g := Aggregate([]*waitgraph.Graph{f.graph(root)}, trace.AllDrivers(), Options{Reduce: true})

	roots := tree(g)
	if len(roots) != 1 {
		t.Fatalf("roots = %d, want 1", len(roots))
	}
	r := roots[0]
	if r.Kind != Waiting || r.WaitSig != "fv.sys!Query" || r.UnwaitSig != "fv.sys!Query" {
		t.Errorf("root = %+v", r)
	}
	if r.C != 10*ms || r.N != 1 || r.MaxC != 10*ms {
		t.Errorf("root metrics: C=%v N=%d MaxC=%v", r.C, r.N, r.MaxC)
	}
	kids := r.kids
	if len(kids) != 1 || kids[0].Kind != Running || kids[0].RunSig != "se.sys!Decrypt" {
		t.Fatalf("children = %+v", kids)
	}
}

func TestAggregateMergesCommonPrefix(t *testing.T) {
	f := newFixture()
	wStack := f.stack("kernel!AcquireLock", "fs.sys!AcquireMDU", "App!Main")
	uStack := f.stack("fs.sys!AcquireMDU", "App!Main")
	runA := f.stack("se.sys!Decrypt", "kernel!Worker")
	runB := f.stack("net.sys!Indicate", "kernel!DPC")

	// Two graphs whose roots share wait/unwait signatures but diverge in
	// their leaves: the AWG must share the root node.
	g1 := f.graph(f.waitNode(5*ms, wStack, uStack, f.node(trace.Running, 1*ms, runA)))
	g2 := f.graph(f.waitNode(7*ms, wStack, uStack, f.node(trace.Running, 2*ms, runB)))

	g := Aggregate([]*waitgraph.Graph{g1, g2}, trace.AllDrivers(), Options{Reduce: true})
	roots := tree(g)
	if len(roots) != 1 {
		t.Fatalf("roots = %d, want 1 (common prefix must merge)", len(roots))
	}
	r := roots[0]
	if r.C != 12*ms || r.N != 2 || r.MaxC != 7*ms {
		t.Errorf("merged root: C=%v N=%d MaxC=%v", r.C, r.N, r.MaxC)
	}
	if len(r.kids) != 2 {
		t.Errorf("children = %d, want 2 (divergent leaves)", len(r.kids))
	}
	if r.AvgC() != 6*ms {
		t.Errorf("AvgC = %v", r.AvgC())
	}
}

func TestIrrelevantWaitIsTransparent(t *testing.T) {
	f := newFixture()
	appWait := f.stack("kernel!WaitForObject", "App!Main") // no driver frame
	appUnwait := f.stack("App!Worker")
	drvWait := f.stack("kernel!AcquireLock", "fs.sys!AcquireMDU", "App!Worker")
	drvUnwait := f.stack("fs.sys!AcquireMDU", "AV!Worker")

	inner := f.waitNode(4*ms, drvWait, drvUnwait, f.node(trace.Running, 1*ms, f.stack("se.sys!Decrypt")))
	outer := f.waitNode(9*ms, appWait, appUnwait, inner)

	g := Aggregate([]*waitgraph.Graph{f.graph(outer)}, trace.AllDrivers(), Options{Reduce: true})
	roots := tree(g)
	if len(roots) != 1 {
		t.Fatalf("roots = %d, want 1 (app wait must pass through)", len(roots))
	}
	if roots[0].WaitSig != "fs.sys!AcquireMDU" {
		t.Errorf("root wait sig = %q, want the inner driver wait", roots[0].WaitSig)
	}
}

func TestIrrelevantRunningDropped(t *testing.T) {
	f := newFixture()
	drvWait := f.stack("kernel!AcquireLock", "fs.sys!AcquireMDU")
	drvUnwait := f.stack("fs.sys!AcquireMDU")
	appRun := f.stack("App!Busy")

	root := f.waitNode(5*ms, drvWait, drvUnwait, f.node(trace.Running, 3*ms, appRun))
	g := Aggregate([]*waitgraph.Graph{f.graph(root)}, trace.AllDrivers(), Options{Reduce: true})
	if len(tree(g)) != 1 {
		t.Fatal("driver wait lost")
	}
	if len(tree(g)[0].kids) != 0 {
		t.Error("app running node must be dropped")
	}
}

func TestReducePrunesHardwareOnlyRoots(t *testing.T) {
	f := newFixture()
	drvWait := f.stack("kernel!RequireResource", "fs.sys!Read")
	hwStack := f.stack("disk!Service")

	hw := f.node(trace.HardwareService, 8*ms, hwStack)
	pureHW := f.waitNode(8*ms, drvWait, hwStack, hw)

	// A different wait signature, so the two roots do not merge.
	drvWait2 := f.stack("kernel!RequireResource", "fs.sys!Write")
	hw2 := f.node(trace.HardwareService, 3*ms, hwStack)
	run := f.node(trace.Running, 1*ms, f.stack("se.sys!Decrypt"))
	mixed := f.waitNode(4*ms, drvWait2, hwStack, hw2, run)

	// Two separate graphs so the two roots do not merge into one node.
	g := Aggregate([]*waitgraph.Graph{f.graph(pureHW), f.graph(mixed)},
		trace.AllDrivers(), Options{Reduce: true})

	// The pure wait->hardware root must be pruned; the mixed one kept.
	if g.ReducedCost != 8*ms {
		t.Errorf("ReducedCost = %v, want 8ms", g.ReducedCost)
	}
	if g.KeptCost != 4*ms {
		t.Errorf("KeptCost = %v, want 4ms", g.KeptCost)
	}
	if n := len(tree(g)); n != 1 {
		t.Errorf("roots after reduce = %d, want 1", n)
	}
}

func TestReduceDisabled(t *testing.T) {
	f := newFixture()
	drvWait := f.stack("kernel!RequireResource", "fs.sys!Read")
	hwStack := f.stack("disk!Service")
	root := f.waitNode(8*ms, drvWait, hwStack, f.node(trace.HardwareService, 8*ms, hwStack))
	g := Aggregate([]*waitgraph.Graph{f.graph(root)}, trace.AllDrivers(), Options{Reduce: false})
	if len(tree(g)) != 1 || g.ReducedCost != 0 {
		t.Error("reduction ran although disabled")
	}
}

func TestDiamondDedupSameParentSignature(t *testing.T) {
	f := newFixture()
	// Both parents carry the same driver signatures (different app
	// frames), so they merge into one AWG node — and the shared child
	// event must accumulate exactly once there.
	drvWaitA := f.stack("kernel!AcquireLock", "fv.sys!Query", "P!A")
	drvWaitB := f.stack("kernel!AcquireLock", "fv.sys!Query", "P!B")
	unw := f.stack("fv.sys!Query", "P!H")
	runStack := f.stack("se.sys!Decrypt")

	shared := f.node(trace.Running, 2*ms, runStack)
	a := f.waitNode(5*ms, drvWaitA, unw, shared)
	b := f.waitNode(6*ms, drvWaitB, unw, shared)
	g := Aggregate([]*waitgraph.Graph{f.graph(a, b)}, trace.AllDrivers(), Options{Reduce: true})

	roots := tree(g)
	if len(roots) != 1 {
		t.Fatalf("roots = %d, want 1 (same signatures merge)", len(roots))
	}
	if roots[0].C != 11*ms || roots[0].N != 2 {
		t.Errorf("merged parent C=%v N=%d, want 11ms / 2", roots[0].C, roots[0].N)
	}
	kids := roots[0].kids
	if len(kids) != 1 || kids[0].C != 2*ms || kids[0].N != 1 {
		t.Fatalf("shared child must accumulate once: %+v", kids)
	}
}

func TestDiamondSharedEventDistinctParents(t *testing.T) {
	f := newFixture()
	// Distinct driver signatures: two AWG positions, one accumulation
	// each.
	drvWaitA := f.stack("kernel!AcquireLock", "fv.sys!QueryA", "P!A")
	drvWaitB := f.stack("kernel!AcquireLock", "fv.sys!QueryB", "P!B")
	unw := f.stack("fv.sys!QueryA", "P!H")
	runStack := f.stack("se.sys!Decrypt")

	shared := f.node(trace.Running, 2*ms, runStack)
	a := f.waitNode(5*ms, drvWaitA, unw, shared)
	b := f.waitNode(6*ms, drvWaitB, unw, shared)
	g := Aggregate([]*waitgraph.Graph{f.graph(a, b)}, trace.AllDrivers(), Options{Reduce: true})

	var totalRunC trace.Duration
	var totalRunN int64
	for _, r := range tree(g) {
		for _, c := range r.kids {
			if c.Kind == Running {
				totalRunC += c.C
				totalRunN += c.N
			}
		}
	}
	if totalRunN != 2 || totalRunC != 4*ms {
		t.Errorf("shared event accumulated C=%v N=%d; want 4ms across 2 positions", totalRunC, totalRunN)
	}
}

func TestHardwareDummySignature(t *testing.T) {
	f := newFixture()
	drvWait := f.stack("kernel!RequireResource", "fs.sys!Read")
	hwStack := f.stack("disk!Service")
	run := f.node(trace.Running, 1*ms, f.stack("se.sys!Decrypt"))
	root := f.waitNode(4*ms, drvWait, hwStack, f.node(trace.HardwareService, 3*ms, hwStack), run)
	g := Aggregate([]*waitgraph.Graph{f.graph(root)}, trace.AllDrivers(), Options{Reduce: true})
	found := false
	for _, c := range tree(g)[0].kids {
		if c.Kind == Hardware {
			found = true
			if c.RunSig != sigset.HardwareSignature {
				t.Errorf("hardware RunSig = %q", c.RunSig)
			}
		}
	}
	if !found {
		t.Error("hardware child missing")
	}
}

func TestUnwaitSigFallback(t *testing.T) {
	f := newFixture()
	drvWait := f.stack("kernel!RequireResource", "fs.sys!Read")
	// Unwait stack with no driver frame: falls back to first non-kernel.
	unw := f.stack("kernel!SignalObject", "disk!Service")
	run := f.node(trace.Running, 1*ms, f.stack("se.sys!Decrypt"))
	root := f.waitNode(4*ms, drvWait, unw, run)
	g := Aggregate([]*waitgraph.Graph{f.graph(root)}, trace.AllDrivers(), Options{Reduce: true})
	if got := tree(g)[0].UnwaitSig; got != "disk!Service" {
		t.Errorf("UnwaitSig = %q, want disk!Service", got)
	}
}

func TestRenderText(t *testing.T) {
	f := newFixture()
	drvWait := f.stack("kernel!AcquireLock", "fv.sys!Query")
	unw := f.stack("fv.sys!Query")
	root := f.waitNode(5*ms, drvWait, unw, f.node(trace.Running, 1*ms, f.stack("se.sys!Decrypt")))
	g := Aggregate([]*waitgraph.Graph{f.graph(root)}, trace.AllDrivers(), Options{Reduce: true})

	var buf bytes.Buffer
	if err := g.WriteText(&buf, 5); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"fv.sys!Query", "se.sys!Decrypt", "N=1"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}

	buf.Reset()
	if err := g.WriteDOT(&buf, "test"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "digraph") || !strings.Contains(buf.String(), "fv.sys!Query") {
		t.Error("DOT output malformed")
	}
}

func TestNumNodesAndTotalCost(t *testing.T) {
	f := newFixture()
	drvWait := f.stack("kernel!AcquireLock", "fv.sys!Query")
	unw := f.stack("fv.sys!Query")
	root := f.waitNode(5*ms, drvWait, unw, f.node(trace.Running, 1*ms, f.stack("se.sys!Decrypt")))
	g := Aggregate([]*waitgraph.Graph{f.graph(root)}, trace.AllDrivers(), Options{Reduce: true})
	if g.NumNodes() != 2 {
		t.Errorf("NumNodes = %d, want 2", g.NumNodes())
	}
	if g.TotalCost() != 5*ms {
		t.Errorf("TotalCost = %v", g.TotalCost())
	}
}

// TestWaitKeyCollisionStaysApart: two waiting nodes whose Keys are the
// same bytes — a '|' inside one pair's wait signature, inside the
// other's unwait signature — are two nodes, each keeping its own
// signatures and metrics.
func TestWaitKeyCollisionStaysApart(t *testing.T) {
	f := newFixture()
	run := f.stack("se.sys!Decrypt")
	first := f.waitNode(4*ms, f.stack("kernel!Wait", "a.sys!A|b.sys!B"), f.stack("c.sys!C"), f.node(trace.Running, ms, run))
	second := f.waitNode(6*ms, f.stack("kernel!Wait", "a.sys!A"), f.stack("b.sys!B|c.sys!C"), f.node(trace.Running, 2*ms, run))
	g := Aggregate([]*waitgraph.Graph{f.graph(first, second)}, trace.AllDrivers(), DefaultOptions())
	if n := g.NumNodes(); n != 4 {
		t.Errorf("NumNodes = %d, want 4 (two roots, a leaf under each)", n)
	}
	var text bytes.Buffer
	if err := g.WriteText(&text, 8); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(text.String(), "\n")
	for _, want := range []string{
		"wait a.sys!A|b.sys!B -> unwait c.sys!C ",
		"wait a.sys!A -> unwait b.sys!B|c.sys!C ",
	} {
		seen := 0
		for _, line := range lines {
			if strings.HasPrefix(line, want) && strings.Contains(line, " N=1 ") {
				seen++
			}
		}
		if seen != 1 {
			t.Errorf("rendering shows %q with N=1 %d times, want once:\n%s", want, seen, text.String())
		}
	}
}

func TestMaxDepthBound(t *testing.T) {
	f := newFixture()
	// A deep chain of distinct driver waits.
	var leaf *waitgraph.Node = f.node(trace.Running, ms, f.stack("se.sys!Leaf"))
	node := leaf
	for i := 0; i < 10; i++ {
		w := f.stack("kernel!AcquireLock", "fs.sys!L"+string(rune('A'+i)))
		u := f.stack("fs.sys!L" + string(rune('A'+i)))
		node = f.waitNode(trace.Duration(10+i)*ms, w, u, node)
	}
	g := Aggregate([]*waitgraph.Graph{f.graph(node)}, trace.AllDrivers(), Options{Reduce: true, MaxDepth: 3})
	// Depth-bounded aggregation keeps at most 4 levels (depth 0..3).
	depth := 0
	var walk func(n *tnode, d int)
	walk = func(n *tnode, d int) {
		if d > depth {
			depth = d
		}
		for _, c := range n.kids {
			walk(c, d+1)
		}
	}
	for _, r := range tree(g) {
		walk(r, 0)
	}
	if depth > 3 {
		t.Errorf("aggregated depth %d exceeds MaxDepth 3", depth)
	}
}
