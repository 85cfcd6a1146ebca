package awg

import (
	"bytes"
	"testing"

	"tracescope/internal/trace"
	"tracescope/internal/waitgraph"
)

// buildForest hand-crafts an AWG with several roots and sibling children
// — the shapes a forest kept in maps would read back in a different
// order per construction.
func buildForest() *Graph {
	f := newFixture()
	wA := f.stack("kernel!AcquireLock", "fv.sys!Query", "App!Main")
	uA := f.stack("kernel!ReleaseLock", "fv.sys!Query", "App!Other")
	wB := f.stack("kernel!Wait", "fs.sys!Read", "App!Main")
	uB := f.stack("kernel!Signal", "fs.sys!Read", "App!Other")
	r1 := f.stack("se.sys!Decrypt", "kernel!Worker")
	r2 := f.stack("dp.sys!CheckMotion", "kernel!Worker")
	r3 := f.stack("net.sys!Transfer", "kernel!Worker")

	rootA := f.waitNode(10*ms, wA, uA,
		f.node(trace.Running, 2*ms, r1),
		f.node(trace.Running, 3*ms, r2),
		f.node(trace.HardwareService, 1*ms, r3),
	)
	rootB := f.waitNode(7*ms, wB, uB,
		f.node(trace.Running, 4*ms, r3),
		f.node(trace.Running, 1*ms, r1),
	)
	rootC := f.node(trace.Running, 5*ms, r2)
	return Aggregate([]*waitgraph.Graph{f.graph(rootA, rootB, rootC)}, trace.AllDrivers(), Options{Reduce: true})
}

// TestRenderByteEquality pins the render-path determinism contract: the
// same logical forest, built from scratch each time (a fresh lookup
// map, with a fresh randomised iteration order), must render to identical bytes in
// both the text and the DOT form. This is the regression test for the
// unsorted-iteration bug class tracelint's mapiter/unstablesort
// analyzers guard against.
func TestRenderByteEquality(t *testing.T) {
	var textRuns, dotRuns [][]byte
	for run := 0; run < 4; run++ {
		g := buildForest()
		var text, dot bytes.Buffer
		if err := g.WriteText(&text, 8); err != nil {
			t.Fatal(err)
		}
		if err := g.WriteDOT(&dot, "awg"); err != nil {
			t.Fatal(err)
		}
		textRuns = append(textRuns, text.Bytes())
		dotRuns = append(dotRuns, dot.Bytes())
	}
	for i := 1; i < len(textRuns); i++ {
		if !bytes.Equal(textRuns[0], textRuns[i]) {
			t.Errorf("WriteText run %d differs from run 0:\n--- run0\n%s\n--- run%d\n%s",
				i, textRuns[0], i, textRuns[i])
		}
		if !bytes.Equal(dotRuns[0], dotRuns[i]) {
			t.Errorf("WriteDOT run %d differs from run 0", i)
		}
	}
}

// TestRootsAndChildrenStableOrder pins the layout contract the
// renderers rely on: roots and each node's children are key-sorted in
// Graph.Nodes, on every rebuild.
func TestRootsAndChildrenStableOrder(t *testing.T) {
	for run := 0; run < 4; run++ {
		g := buildForest()
		roots := tree(g)
		for i := 1; i < len(roots); i++ {
			if roots[i-1].Key() >= roots[i].Key() {
				t.Fatalf("run %d: roots out of order: %q >= %q", run, roots[i-1].Key(), roots[i].Key())
			}
		}
		for _, r := range roots {
			kids := r.kids
			for i := 1; i < len(kids); i++ {
				if kids[i-1].Key() >= kids[i].Key() {
					t.Fatalf("run %d: children out of order under %q", run, r.Key())
				}
			}
		}
	}
}
