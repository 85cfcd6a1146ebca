package awg

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"tracescope/internal/trace"
	"tracescope/internal/waitgraph"
)

// refWriteText and refWriteDOT are the fmt renderers WriteText and
// WriteDOT replaced, kept as their byte-for-byte oracle. refWriteDOT
// escapes signatures in labels (refDOTLabel), which the fmt renderer did
// not: a signature holding '"', '\' or a newline made its DOT invalid.
func refWriteText(w io.Writer, g *Graph, maxDepth int) {
	if maxDepth <= 0 {
		maxDepth = 8
	}
	var node func(n *Node, depth int)
	node = func(n *Node, depth int) {
		var label string
		switch n.Kind {
		case Waiting:
			label = fmt.Sprintf("wait %s -> unwait %s", n.WaitSig, n.UnwaitSig)
		case Running:
			label = fmt.Sprintf("run  %s", n.RunSig)
		default:
			label = "hw   " + n.RunSig
		}
		fmt.Fprintf(w, "%s%-70s C=%-10v N=%-6d maxC=%v\n", strings.Repeat("  ", depth), label, n.C, n.N, n.MaxC)
		if depth+1 >= maxDepth {
			return
		}
		for _, c := range n.Children() {
			node(c, depth+1)
		}
	}
	for _, r := range g.Roots() {
		node(r, 0)
	}
}

func refWriteDOT(w io.Writer, g *Graph, name string) {
	if name == "" {
		name = "awg"
	}
	fmt.Fprintf(w, "digraph %q {\n  rankdir=TB;\n  node [shape=box, fontsize=10];\n", name)
	id := 0
	var emit func(n *Node, parentID int)
	emit = func(n *Node, parentID int) {
		id++
		myID := id
		var label, color string
		switch n.Kind {
		case Waiting:
			label = fmt.Sprintf("wait: %s\\nunwait: %s", refDOTLabel(n.WaitSig), refDOTLabel(n.UnwaitSig))
			color = "lightblue"
		case Running:
			label = "run: " + refDOTLabel(n.RunSig)
			color = "palegreen"
		default:
			label = refDOTLabel(n.RunSig)
			color = "lightsalmon"
		}
		label += fmt.Sprintf("\\nC=%v N=%d", n.C, n.N)
		fmt.Fprintf(w, "  n%d [label=\"%s\", style=filled, fillcolor=%s];\n", myID, label, color)
		if parentID > 0 {
			fmt.Fprintf(w, "  n%d -> n%d;\n", parentID, myID)
		}
		for _, c := range n.Children() {
			emit(c, myID)
		}
	}
	for _, r := range g.Roots() {
		emit(r, 0)
	}
	fmt.Fprintln(w, "}")
}

// refDOTLabel escapes a signature for a DOT label; a signature without
// '"', '\' or a newline is unchanged.
var refDOTLabel = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace

// oddForest has labels the padding must count in runes (multi-byte
// signatures), labels past the 70-column field, and costs from
// microseconds to seconds.
func oddForest() *Graph {
	f := newFixture()
	long := "drv.sys!" + strings.Repeat("VeryLongFunctionName", 5)
	wait := f.stack("kernel!Wait", "fé.sys!Lëse", "App!Main")
	unwait := f.stack("kernel!Signal", long)
	root := f.waitNode(2_345_678, wait, unwait,
		f.node(trace.Running, 999, f.stack("sé.sys!Déchiffrer")),
		f.node(trace.Running, 1_005, f.stack(long)),
		f.node(trace.HardwareService, 12*ms, f.stack("dp.sys!Motion")),
	)
	return Aggregate([]*waitgraph.Graph{f.graph(root)}, trace.AllDrivers(), Options{Reduce: true})
}

// quotedForest has signatures holding the bytes a DOT label must
// escape: '"', '\' and a newline.
func quotedForest() *Graph {
	f := newFixture()
	wait := f.stack("kernel!Wait", `q".sys!Lock\Wait`, "App!Main")
	unwait := f.stack("kernel!Signal", "nl.sys!Line\nBreak")
	root := f.waitNode(3*ms, wait, unwait,
		f.node(trace.Running, 2*ms, f.stack(`b\.sys!Run"`)),
		f.node(trace.HardwareService, ms, f.stack("dp.sys!Motion")),
	)
	return Aggregate([]*waitgraph.Graph{f.graph(root)}, trace.AllDrivers(), Options{Reduce: true})
}

// bigForest aggregates the random graphs of many seeds into one forest
// whose renderings span several flushes.
func bigForest() *Graph {
	ag := NewAggregator(trace.AllDrivers(), DefaultOptions())
	for seed := int64(1); seed <= 40; seed++ {
		for _, g := range randomGraphs(seed, waitgraph.Options{}) {
			ag.Add(g)
		}
	}
	return ag.Finish()
}

// TestRenderMatchesFmt: WriteText at every depth bound and WriteDOT
// under any name render each forest byte for byte as the fmt renderers
// did, through buffers that flush many times over.
func TestRenderMatchesFmt(t *testing.T) {
	big := bigForest()
	for label, g := range map[string]*Graph{"fixture": buildForest(), "odd": oddForest(), "quoted": quotedForest(), "big": big, "empty": {}} {
		for _, depth := range []int{0, 1, 3, 64} {
			var got, want bytes.Buffer
			if err := g.WriteText(&got, depth); err != nil {
				t.Fatal(err)
			}
			refWriteText(&want, g, depth)
			if got.String() != want.String() {
				t.Errorf("%s: WriteText(%d) differs from fmt:\n%s\n--- fmt ---\n%s", label, depth, got.String(), want.String())
			}
		}
		for _, name := range []string{"", "WebPageNavigation", "quo\"te\\ö\n"} {
			var got, want bytes.Buffer
			if err := g.WriteDOT(&got, name); err != nil {
				t.Fatal(err)
			}
			refWriteDOT(&want, g, name)
			if got.String() != want.String() {
				t.Errorf("%s: WriteDOT(%q) differs from fmt:\n%s\n--- fmt ---\n%s", label, name, got.String(), want.String())
			}
		}
	}
	var text bytes.Buffer
	if err := big.WriteText(&text, 64); err != nil {
		t.Fatal(err)
	}
	if text.Len() < 4*renderFlush {
		t.Fatalf("big forest renders %d bytes, want several flushes of %d", text.Len(), renderFlush)
	}
}

// TestWriteDOTQuotesSignatures: a label holding a signature with '"',
// '\' or a newline stays one DOT string — its quotes balance and no
// newline breaks it — and keeps the signature, escaped.
func TestWriteDOTQuotesSignatures(t *testing.T) {
	var dot bytes.Buffer
	if err := quotedForest().WriteDOT(&dot, "awg"); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSuffix(dot.String(), "\n"), "\n") {
		if quotes := strings.Count(line, `"`) - strings.Count(line, `\"`); quotes%2 != 0 {
			t.Errorf("unbalanced quotes in %q", line)
		}
	}
	for _, want := range []string{`q\".sys!Lock\\Wait`, `nl.sys!Line\nBreak`, `b\\.sys!Run\"`} {
		if !strings.Contains(dot.String(), want) {
			t.Errorf("DOT lacks the escaped signature %s:\n%s", want, dot.String())
		}
	}
}

// failAfter accepts n writes, then fails every one.
type failAfter struct {
	n, writes int
}

var errSink = errors.New("sink closed")

func (f *failAfter) Write(p []byte) (int, error) {
	f.writes++
	if f.writes > f.n {
		return 0, errSink
	}
	return len(p), nil
}

// TestRenderStopsAtWriteError: a failed write is returned, and nothing
// is written after it.
func TestRenderStopsAtWriteError(t *testing.T) {
	g := bigForest()
	for _, n := range []int{0, 1} {
		w := &failAfter{n: n}
		if err := g.WriteText(w, 64); !errors.Is(err, errSink) {
			t.Errorf("WriteText after %d writes: error %v, want %v", n, err, errSink)
		}
		if w.writes != n+1 {
			t.Errorf("WriteText: %d writes, want %d (none after the failure)", w.writes, n+1)
		}
		w = &failAfter{n: n}
		if err := g.WriteDOT(w, ""); !errors.Is(err, errSink) {
			t.Errorf("WriteDOT after %d writes: error %v, want %v", n, err, errSink)
		}
		if w.writes != n+1 {
			t.Errorf("WriteDOT: %d writes, want %d (none after the failure)", w.writes, n+1)
		}
	}
}
