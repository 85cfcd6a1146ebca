package waitgraph

import (
	"fmt"
	"io"
	"strings"

	"tracescope/internal/trace"
)

// Stats summarises a Wait Graph's shape.
type Stats struct {
	Nodes    int
	Waits    int
	Runnings int
	Hardware int
	MaxDepth int
	// Orphans counts wait nodes with no matched unwait.
	Orphans int
	// TotalWait sums wait-node costs; TotalRun sums running costs.
	TotalWait trace.Duration
	TotalRun  trace.Duration
}

// ComputeStats walks the graph once and summarises it.
func (g *Graph) ComputeStats() Stats {
	var st Stats
	g.Walk(func(n *Node, depth int) bool {
		st.Nodes++
		if depth+1 > st.MaxDepth {
			st.MaxDepth = depth + 1
		}
		switch n.Type {
		case trace.Wait:
			st.Waits++
			st.TotalWait += n.Cost
			if !n.HasUnwait {
				st.Orphans++
			}
		case trace.Running:
			st.Runnings++
			st.TotalRun += n.Cost
		case trace.HardwareService:
			st.Hardware++
		}
		return true
	})
	return st
}

// WriteText renders the instance graph as an indented tree with event
// timing and topmost frames — the drill-down view after a pattern points
// an analyst at an instance.
func (g *Graph) WriteText(w io.Writer, maxDepth, maxFrames int) error {
	if maxDepth <= 0 {
		maxDepth = 8
	}
	if maxFrames <= 0 {
		maxFrames = 3
	}
	fmt.Fprintf(w, "wait graph of %s instance %q [%v, %v) on %s\n",
		g.Stream.ID, g.Instance.Scenario,
		trace.Duration(g.Instance.Start), trace.Duration(g.Instance.End),
		g.Stream.ThreadName(g.Instance.TID))
	expanded := g.beginWalk() // nodes whose children were already printed
	defer markPool.Put(expanded)
	var walk func(n *Node, depth int) error
	walk = func(n *Node, depth int) error {
		indent := strings.Repeat("  ", depth)
		frames := g.Stream.StackStrings(n.Stack)
		if len(frames) > maxFrames {
			frames = frames[:maxFrames]
		}
		shared := expanded.Has(n.Event.Index)
		suffix := ""
		if shared {
			suffix = " (shared, elided)"
		}
		if _, err := fmt.Fprintf(w, "%s%-9s t=%-10v c=%-10v %s [%s]%s\n",
			indent, n.Type, trace.Duration(n.Time), n.Cost,
			g.Stream.ThreadName(n.TID), strings.Join(frames, " < "), suffix); err != nil {
			return err
		}
		if shared || depth+1 >= maxDepth {
			return nil
		}
		expanded.Visit(n.Event.Index)
		for _, c := range n.Children {
			if err := walk(c, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	for _, r := range g.Roots {
		if err := walk(r, 0); err != nil {
			return err
		}
	}
	return nil
}

// WriteDOT renders the graph in Graphviz DOT form.
func (g *Graph) WriteDOT(w io.Writer, name string) error {
	if name == "" {
		name = "waitgraph"
	}
	if _, err := fmt.Fprintf(w, "digraph %q {\n  node [shape=box, fontsize=9];\n", name); err != nil {
		return err
	}
	ids := make(map[trace.EventID]int)
	var emit func(n *Node) (int, error)
	emit = func(n *Node) (int, error) {
		if id, ok := ids[n.Event]; ok {
			return id, nil
		}
		id := len(ids) + 1
		ids[n.Event] = id
		top := ""
		if frames := g.Stream.StackStrings(n.Stack); len(frames) > 0 {
			top = frames[0]
			for _, f := range frames {
				if !strings.HasPrefix(f, "kernel!") {
					top = f
					break
				}
			}
		}
		label := fmt.Sprintf("%s\\n%s\\nc=%v", n.Type, top, n.Cost)
		if _, err := fmt.Fprintf(w, "  n%d [label=\"%s\"];\n", id, label); err != nil {
			return 0, err
		}
		for _, c := range n.Children {
			cid, err := emit(c)
			if err != nil {
				return 0, err
			}
			if _, err := fmt.Fprintf(w, "  n%d -> n%d;\n", id, cid); err != nil {
				return 0, err
			}
		}
		return id, nil
	}
	for _, r := range g.Roots {
		if _, err := emit(r); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
