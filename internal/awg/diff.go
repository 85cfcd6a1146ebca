package awg

import (
	"cmp"
	"fmt"

	"tracescope/internal/trace"
)

// EdgeStatus classifies one node of a cross-graph diff.
type EdgeStatus uint8

// Edge statuses: present in both graphs, only in the candidate, only in
// the baseline.
const (
	EdgeChanged EdgeStatus = iota
	EdgeNew
	EdgeVanished
)

// String implements fmt.Stringer.
func (s EdgeStatus) String() string {
	switch s {
	case EdgeChanged:
		return "changed"
	case EdgeNew:
		return "new"
	case EdgeVanished:
		return "vanished"
	default:
		return "?"
	}
}

// EdgeDelta is one node of the edge-by-edge diff of two Aggregated Wait
// Graphs: the same signature path observed in a baseline and a candidate
// graph, with the cost movement between them. "Edge" follows the wait
// chain reading of the AWG — each node is the edge from its parent's
// signature to its own.
type EdgeDelta struct {
	// Path is the node's root-to-self chain of canonical node keys
	// (Node.Key), identifying the wait chain the delta sits on.
	Path []string
	// Kind and the signatures describe the node itself.
	Kind      Kind
	WaitSig   string
	UnwaitSig string
	RunSig    string

	// Status says whether the node exists in both graphs (changed), only
	// in the candidate (new), or only in the baseline (vanished).
	Status EdgeStatus

	// Per-side aggregates. The missing side of a new/vanished node is
	// all zeros.
	BaseC    trace.Duration
	CandC    trace.Duration
	BaseN    int64
	CandN    int64
	BaseMaxC trace.Duration
	CandMaxC trace.Duration

	// DeltaC is the aggregated cost movement, CandC - BaseC. Positive
	// means the candidate got slower through this chain.
	DeltaC trace.Duration
	// OwnDeltaC attributes the movement down the wait chain: DeltaC
	// minus the sum of the direct children's DeltaC. A wait node's cost
	// contains its children's propagated costs, so a chain that merely
	// relays a deeper regression has OwnDeltaC near zero, while the hop
	// where the regression actually originates keeps it.
	OwnDeltaC trace.Duration

	chain string // Chain's text, built from the path's signatures
}

// Label renders the node the way the text renderer does.
func (d EdgeDelta) Label() string {
	switch d.Kind {
	case Waiting:
		return fmt.Sprintf("wait %s -> unwait %s", d.WaitSig, d.UnwaitSig)
	case Running:
		return "run " + d.RunSig
	default:
		return "hw " + d.RunSig
	}
}

// Chain renders the full root-to-node wait chain as a readable arrow
// path: "wait W <- U" (or "wait W" with no unwait signature), "run R"
// and "hw H" per node, joined by " => ".
func (d EdgeDelta) Chain() string { return d.chain }

// appendChainElem appends one node's element of a Chain.
func appendChainElem(buf []byte, n *Node) []byte {
	switch n.Kind {
	case Waiting:
		buf = append(buf, "wait "...)
		buf = append(buf, n.WaitSig...)
		if n.UnwaitSig != "" {
			buf = append(buf, " <- "...)
			buf = append(buf, n.UnwaitSig...)
		}
		return buf
	case Running:
		buf = append(buf, "run "...)
	default:
		buf = append(buf, "hw "...)
	}
	return append(buf, n.RunSig...)
}

// Depth is the node's depth in the forest (roots are 1).
func (d EdgeDelta) Depth() int { return len(d.Path) }

// DiffGraphs walks the union of two Aggregated Wait Graph forests by
// signature path and reports every node whose aggregates moved: cost or
// count deltas for nodes present in both, and new/vanished whole
// subtrees. Nodes identical on both sides are skipped (so diffing a
// graph against itself yields nothing), but their subtrees are still
// descended. The result is in deterministic post-order — children before
// their parent, siblings by key, so each node's OwnDeltaC subtracts
// already-computed child deltas; callers rank it however suits them.
//
// Both graphs should be the reduced clones of the same filter and depth
// configuration — diffing a reduced graph against an unreduced one
// reports the reduction itself as a regression.
func DiffGraphs(base, cand *Graph) []EdgeDelta {
	var d differ
	if base != nil {
		d.base = base.Nodes()
	}
	if cand != nil {
		d.cand = cand.Nodes()
	}
	d.level(0, int32(len(d.base)), 0, int32(len(d.cand)))
	return d.out
}

// differ walks two laid-out forests side by side.
type differ struct {
	base, cand []Node
	path       []*Node // the nodes from a root down to the current one
	out        []EdgeDelta
}

// level diffs the sibling runs base[bi:bend] and cand[ci:cend], both in
// Key order, as a merge: a node on one side only is new or vanished.
// It recurses depth-first so each node's OwnDeltaC can subtract its
// children's DeltaC, and returns the level's summed DeltaC.
func (d *differ) level(bi, bend, ci, cend int32) trace.Duration {
	var levelDelta trace.Duration
	for bi < bend || ci < cend {
		var bn, cn *Node
		switch {
		case ci == cend:
			bn = &d.base[bi]
		case bi == bend:
			cn = &d.cand[ci]
		default:
			c := compareKeys(&d.base[bi], &d.cand[ci])
			if c <= 0 {
				bn = &d.base[bi]
			}
			if c >= 0 {
				cn = &d.cand[ci]
			}
		}
		// A side without the node has no children: the empty run 0:0.
		var bkids, ckids [2]int32
		if bn != nil {
			bkids, bi = [2]int32{bi + 1, bn.end}, bn.end
		}
		if cn != nil {
			ckids, ci = [2]int32{ci + 1, cn.end}, cn.end
		}
		e := nodeDelta(bn, cn)
		levelDelta += e.DeltaC
		d.path = append(d.path, cmp.Or(cn, bn))
		e.OwnDeltaC = e.DeltaC - d.level(bkids[0], bkids[1], ckids[0], ckids[1])
		if e.Status != EdgeChanged || e.DeltaC != 0 || e.BaseN != e.CandN ||
			e.BaseMaxC != e.CandMaxC || e.OwnDeltaC != 0 {
			e.Path = make([]string, len(d.path))
			var chain []byte
			for i, n := range d.path {
				e.Path[i] = n.Key()
				if i > 0 {
					chain = append(chain, " => "...)
				}
				chain = appendChainElem(chain, n)
			}
			e.chain = string(chain)
			d.out = append(d.out, e)
		}
		d.path = d.path[:len(d.path)-1]
	}
	return levelDelta
}

// nodeDelta builds the delta record of one union node, all but its path;
// bn or cn may be nil but not both.
func nodeDelta(bn, cn *Node) EdgeDelta {
	src := bn
	status := EdgeVanished
	if cn != nil {
		src = cn
		status = EdgeNew
		if bn != nil {
			status = EdgeChanged
		}
	}
	d := EdgeDelta{
		Kind:      src.Kind,
		WaitSig:   src.WaitSig,
		UnwaitSig: src.UnwaitSig,
		RunSig:    src.RunSig,
		Status:    status,
	}
	if bn != nil {
		d.BaseC, d.BaseN, d.BaseMaxC = bn.C, bn.N, bn.MaxC
	}
	if cn != nil {
		d.CandC, d.CandN, d.CandMaxC = cn.C, cn.N, cn.MaxC
	}
	d.DeltaC = d.CandC - d.BaseC
	return d
}
