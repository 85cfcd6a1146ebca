package awg_test

import (
	"fmt"

	"tracescope/internal/awg"
	"tracescope/internal/scenario"
	"tracescope/internal/trace"
	"tracescope/internal/waitgraph"
)

// Example aggregates the §2.2 case's Wait Graphs into an Aggregated Wait
// Graph: the deepest chain is the FileTable → MDU → se.sys → disk
// propagation path of Figure 2.
func Example() {
	stream := scenario.MotivatingCase()
	b := waitgraph.NewBuilder(stream, 0, waitgraph.Options{})
	var graphs []*waitgraph.Graph
	for _, in := range stream.Instances {
		graphs = append(graphs, b.Instance(in))
	}
	g := awg.Aggregate(graphs, trace.AllDrivers(), awg.DefaultOptions())

	// Find the FileTable root; the roots are the nodes a walk reaches
	// by stepping over each subtree.
	nodes := g.Nodes()
	for i := 0; i < len(nodes); i = int(nodes[i].End()) {
		if root := &nodes[i]; root.Kind == awg.Waiting && root.WaitSig == "fv.sys!QueryFileTable" {
			fmt.Println("root:", root.WaitSig, "->", root.UnwaitSig)
		}
	}
	// Output:
	// root: fv.sys!QueryFileTable -> fv.sys!QueryFileTable
}
