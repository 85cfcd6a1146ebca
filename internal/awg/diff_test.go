package awg

import (
	"strings"
	"testing"

	"tracescope/internal/trace"
	"tracescope/internal/waitgraph"
)

// diffChainGraph aggregates one wait->run chain: a root wait on waitSig
// costing waitC, propagating into a run leaf on runSig costing runC.
func diffChainGraph(waitC, runC trace.Duration, waitSig, runSig string) *Graph {
	f := newFixture()
	w := f.stack("kernel!AcquireLock", waitSig)
	u := f.stack(waitSig)
	run := f.node(trace.Running, runC, f.stack(runSig))
	root := f.waitNode(waitC, w, u, run)
	return Aggregate([]*waitgraph.Graph{f.graph(root)}, trace.AllDrivers(), Options{Reduce: true})
}

func TestDiffGraphsSelfEmpty(t *testing.T) {
	g := diffChainGraph(10*ms, 2*ms, "fv.sys!Query", "se.sys!Decrypt")
	if deltas := DiffGraphs(g, g); len(deltas) != 0 {
		t.Fatalf("self-diff = %d deltas, want 0: %+v", len(deltas), deltas)
	}
}

func TestDiffGraphsStatusesAndOrder(t *testing.T) {
	base := diffChainGraph(10*ms, 2*ms, "fv.sys!Query", "se.sys!Decrypt")

	// Candidate: the fv.sys chain got 6ms slower at the root (leaf
	// unchanged), and a whole new net.sys chain appeared.
	f := newFixture()
	root := f.waitNode(16*ms,
		f.stack("kernel!AcquireLock", "fv.sys!Query"), f.stack("fv.sys!Query"),
		f.node(trace.Running, 2*ms, f.stack("se.sys!Decrypt")))
	root2 := f.waitNode(8*ms,
		f.stack("kernel!AcquireLock", "net.sys!Transfer"), f.stack("net.sys!Transfer"),
		f.node(trace.Running, 3*ms, f.stack("se.sys!Decrypt")))
	cand := Aggregate([]*waitgraph.Graph{f.graph(root), f.graph(root2)},
		trace.AllDrivers(), Options{Reduce: true})

	deltas := DiffGraphs(base, cand)
	if len(deltas) != 3 {
		t.Fatalf("deltas = %d, want 3: %+v", len(deltas), deltas)
	}
	// Deterministic post-order, siblings by key: the changed fv.sys root
	// first (its unchanged leaf is skipped), then the new net.sys leaf
	// before its parent root.
	d0, d1, d2 := deltas[0], deltas[1], deltas[2]
	if d0.Status != EdgeChanged || d0.WaitSig != "fv.sys!Query" || d0.DeltaC != 6*ms || d0.OwnDeltaC != 6*ms {
		t.Errorf("delta[0] = %+v, want changed fv.sys root, ΔC=6ms own", d0)
	}
	if d0.BaseC != 10*ms || d0.CandC != 16*ms || d0.BaseN != 1 || d0.CandN != 1 {
		t.Errorf("delta[0] sides: %+v", d0)
	}
	if d1.Status != EdgeNew || d1.Kind != Running || d1.DeltaC != 3*ms || d1.Depth() != 2 {
		t.Errorf("delta[1] = %+v, want new run leaf at depth 2", d1)
	}
	if d1.BaseC != 0 || d1.BaseN != 0 {
		t.Errorf("missing side of a new edge must be zero: %+v", d1)
	}
	if d2.Status != EdgeNew || d2.WaitSig != "net.sys!Transfer" || d2.DeltaC != 8*ms || d2.OwnDeltaC != 5*ms {
		t.Errorf("delta[2] = %+v, want new net.sys root, ΔC=8ms own 5ms", d2)
	}

	// The reverse diff sees the same movement with the signs flipped and
	// the new subtree vanished.
	rev := DiffGraphs(cand, base)
	if len(rev) != 3 {
		t.Fatalf("reverse deltas = %d, want 3", len(rev))
	}
	if rev[0].Status != EdgeChanged || rev[0].DeltaC != -6*ms {
		t.Errorf("reverse delta[0] = %+v", rev[0])
	}
	if rev[1].Status != EdgeVanished || rev[1].DeltaC != -3*ms || rev[1].CandC != 0 {
		t.Errorf("reverse delta[1] = %+v, want vanished net.sys leaf", rev[1])
	}
	if rev[2].Status != EdgeVanished || rev[2].DeltaC != -8*ms || rev[2].CandC != 0 {
		t.Errorf("reverse delta[2] = %+v, want vanished net.sys root", rev[2])
	}
}

// TestDiffGraphsOwnDeltaAttribution: when a root wait's growth comes
// entirely from its child, the root's OwnDeltaC is zero — the child
// carries the attribution.
func TestDiffGraphsOwnDeltaAttribution(t *testing.T) {
	base := diffChainGraph(10*ms, 2*ms, "fv.sys!Query", "se.sys!Decrypt")
	cand := diffChainGraph(18*ms, 10*ms, "fv.sys!Query", "se.sys!Decrypt")
	deltas := DiffGraphs(base, cand)
	if len(deltas) != 2 {
		t.Fatalf("deltas = %d, want 2: %+v", len(deltas), deltas)
	}
	leaf, root := deltas[0], deltas[1]
	if root.DeltaC != 8*ms || root.OwnDeltaC != 0 {
		t.Errorf("relaying root: ΔC=%v own=%v, want 8ms / 0", root.DeltaC, root.OwnDeltaC)
	}
	if leaf.DeltaC != 8*ms || leaf.OwnDeltaC != 8*ms {
		t.Errorf("originating leaf: ΔC=%v own=%v, want 8ms / 8ms", leaf.DeltaC, leaf.OwnDeltaC)
	}
}

func TestDiffGraphsNilSides(t *testing.T) {
	g := diffChainGraph(10*ms, 2*ms, "fv.sys!Query", "se.sys!Decrypt")
	if deltas := DiffGraphs(nil, nil); len(deltas) != 0 {
		t.Errorf("nil-vs-nil = %+v, want empty", deltas)
	}
	for _, d := range DiffGraphs(nil, g) {
		if d.Status != EdgeNew {
			t.Errorf("nil baseline: %v %q, want all new", d.Status, d.Label())
		}
	}
	for _, d := range DiffGraphs(g, nil) {
		if d.Status != EdgeVanished {
			t.Errorf("nil candidate: %v %q, want all vanished", d.Status, d.Label())
		}
	}
}

func TestEdgeDeltaRendering(t *testing.T) {
	base := diffChainGraph(10*ms, 2*ms, "fv.sys!Query", "se.sys!Decrypt")
	cand := diffChainGraph(18*ms, 10*ms, "fv.sys!Query", "se.sys!Decrypt")
	deltas := DiffGraphs(base, cand)
	leaf := deltas[0]
	if got := leaf.Chain(); got != "wait fv.sys!Query <- fv.sys!Query => run se.sys!Decrypt" {
		t.Errorf("Chain() = %q", got)
	}
	if got := leaf.Label(); got != "run se.sys!Decrypt" {
		t.Errorf("Label() = %q", got)
	}
	if got := deltas[1].Label(); !strings.HasPrefix(got, "wait fv.sys!Query") {
		t.Errorf("root Label() = %q", got)
	}
	for s, want := range map[EdgeStatus]string{
		EdgeChanged: "changed", EdgeNew: "new", EdgeVanished: "vanished", EdgeStatus(9): "?",
	} {
		if s.String() != want {
			t.Errorf("EdgeStatus(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
}

// TestEdgeDeltaChainKeepsSignatures: a chain element shows the node's
// own wait and unwait signatures, even where a '|' inside one makes its
// Key read as another split.
func TestEdgeDeltaChainKeepsSignatures(t *testing.T) {
	f := newFixture()
	root := f.waitNode(5*ms, f.stack("kernel!Wait", "a.sys!A|b.sys!B"), f.stack("c.sys!C"),
		f.node(trace.Running, ms, f.stack("se.sys!Decrypt")))
	cand := Aggregate([]*waitgraph.Graph{f.graph(root)}, trace.AllDrivers(), DefaultOptions())
	deltas := DiffGraphs(nil, cand)
	if len(deltas) != 2 {
		t.Fatalf("deltas = %d, want 2", len(deltas))
	}
	if got, want := deltas[0].Chain(), "wait a.sys!A|b.sys!B <- c.sys!C => run se.sys!Decrypt"; got != want {
		t.Errorf("Chain() = %q, want %q", got, want)
	}
	if got, want := deltas[1].Chain(), "wait a.sys!A|b.sys!B <- c.sys!C"; got != want {
		t.Errorf("root Chain() = %q, want %q", got, want)
	}
}
