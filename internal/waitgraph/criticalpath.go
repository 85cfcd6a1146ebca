package waitgraph

import (
	"fmt"
	"io"
	"strings"

	"tracescope/internal/trace"
)

// CriticalStep is one hop of an instance's critical path.
type CriticalStep struct {
	Node *Node
	// Signature is the most descriptive frame of the step: the topmost
	// non-kernel frame of the node's stack.
	Signature string
}

// CriticalPath extracts the dominant cost chain of the instance: starting
// from the most expensive root wait, it repeatedly descends into the most
// expensive child until it reaches a leaf (running or hardware work, or
// an unexplained wait). This is the chain the paper draws as arrows
// (1)–(6) in Figure 1, in reverse: where the instance's time actually
// went.
func (g *Graph) CriticalPath() []CriticalStep {
	var root *Node
	for _, r := range g.Roots {
		if r.Type != trace.Wait {
			continue
		}
		if root == nil || r.Cost > root.Cost {
			root = r
		}
	}
	if root == nil {
		return nil
	}
	var path []CriticalStep
	seen := g.beginWalk()
	defer markPool.Put(seen)
	n := root
	for n != nil && seen.Visit(n.Event.Index) {
		path = append(path, CriticalStep{Node: n, Signature: describeNode(g.Stream, n)})
		var next *Node
		for _, c := range n.Children {
			// Prefer the child that explains the most time; running
			// samples aggregate poorly individually, so waits and
			// hardware services win at equal cost.
			if next == nil || c.Cost > next.Cost ||
				(c.Cost == next.Cost && c.Type != trace.Running && next.Type == trace.Running) {
				next = c
			}
		}
		n = next
	}
	return path
}

// Explained reports how much of the first step's wait the leaf of the
// path accounts for (1.0 means the whole delay bottoms out in the leaf).
func Explained(path []CriticalStep) float64 {
	if len(path) < 2 {
		return 0
	}
	rootCost := path[0].Node.Cost
	if rootCost <= 0 {
		return 0
	}
	return float64(path[len(path)-1].Node.Cost) / float64(rootCost)
}

// WriteCriticalPath renders the chain with per-step timing and threads.
func WriteCriticalPath(w io.Writer, g *Graph, path []CriticalStep) error {
	if len(path) == 0 {
		_, err := fmt.Fprintln(w, "no blocking critical path (instance is CPU- or idle-bound)")
		return err
	}
	fmt.Fprintf(w, "critical path (%d hops, leaf explains %.0f%% of the root wait):\n",
		len(path), Explained(path)*100)
	for i, step := range path {
		n := step.Node
		arrow := strings.Repeat("  ", i)
		fmt.Fprintf(w, "  %s%-9s %-38s %-12s cost=%v\n",
			arrow, n.Type, step.Signature, g.Stream.ThreadName(n.TID), n.Cost)
	}
	return nil
}

// describeNode returns the topmost non-kernel frame of the node's stack.
func describeNode(s *trace.Stream, n *Node) string {
	frames := s.StackStrings(n.Stack)
	for _, f := range frames {
		if !strings.HasPrefix(f, "kernel!") {
			return f
		}
	}
	if len(frames) > 0 {
		return frames[0]
	}
	return "?"
}
