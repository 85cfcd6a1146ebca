package awg

import (
	"io"
	"sort"
	"strconv"
	"unicode/utf8"
)

// renderFlush is the buffered size at which a render hands its bytes to
// the writer: a forest of any size renders in this much memory.
const renderFlush = 32 << 10

// spaces is sliced for padding; longer pads take it more than once.
const spaces = "                                                                "

// renderer appends a rendering into one buffer, flushed to w as it
// fills, and sorts each visited node's children into one scratch stack.
type renderer struct {
	w    io.Writer
	buf  []byte
	err  error       // the first write error; nothing is written after it
	kids []keyedNode // the sorted sibling lists of the nodes being visited
}

type keyedNode struct {
	key  string
	node *Node
}

// byKey orders keyed nodes by key; sibling keys are unique.
type byKey []keyedNode

func (s byKey) Len() int           { return len(s) }
func (s byKey) Less(i, j int) bool { return s[i].key < s[j].key }
func (s byKey) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

// newRenderer sizes the buffer for a flush's worth of lines plus the
// line that crosses the threshold.
func newRenderer(w io.Writer) *renderer {
	return &renderer{w: w, buf: make([]byte, 0, renderFlush+renderFlush/4)}
}

// endLine flushes the buffer once it holds renderFlush bytes.
func (r *renderer) endLine() {
	if len(r.buf) >= renderFlush {
		r.flush()
	}
}

func (r *renderer) flush() {
	if r.err == nil && len(r.buf) > 0 {
		_, r.err = r.w.Write(r.buf)
	}
	r.buf = r.buf[:0]
}

func (r *renderer) pad(n int) {
	for ; n > len(spaces); n -= len(spaces) {
		r.buf = append(r.buf, spaces...)
	}
	if n > 0 {
		r.buf = append(r.buf, spaces[:n]...)
	}
}

// padFrom pads what was appended since start to width runes, as fmt's
// %-*s does.
func (r *renderer) padFrom(start, width int) {
	r.pad(width - utf8.RuneCount(r.buf[start:]))
}

// sorted pushes a sibling map's nodes onto the scratch stack in key
// order and returns their range there; the caller reads r.kids[i].node
// by index (deeper visits may move the stack) and pops them with
// r.kids = r.kids[:lo]. Every sibling map is keyed by its nodes' Keys,
// so this is Children's order.
func (r *renderer) sorted(m map[string]*Node) (lo, hi int) {
	lo = len(r.kids)
	for k, n := range m {
		r.kids = append(r.kids, keyedNode{k, n})
	}
	sort.Sort(byKey(r.kids[lo:]))
	return lo, len(r.kids)
}

// WriteText renders the graph as an indented tree (the Figure 2 view):
// each waiting node shows its wait→unwait signature pair, leaves show
// running or hardware signatures, and every node carries its aggregated
// cost and occurrence count.
func (g *Graph) WriteText(w io.Writer, maxDepth int) error {
	if maxDepth <= 0 {
		maxDepth = 8
	}
	r := newRenderer(w)
	r.textLevel(g.roots, 0, maxDepth)
	r.flush()
	return r.err
}

// textLevel renders one sibling map at depth, in key order, each node
// followed by its subtree.
func (r *renderer) textLevel(m map[string]*Node, depth, maxDepth int) {
	lo, hi := r.sorted(m)
	for i := lo; i < hi && r.err == nil; i++ {
		n := r.kids[i].node
		r.textNode(n, depth)
		if depth+1 < maxDepth {
			r.textLevel(n.children, depth+1, maxDepth)
		}
	}
	r.kids = r.kids[:lo]
}

// textNode appends one node's line:
// "%s%-70s C=%-10v N=%-6d maxC=%v\n" of indent, label, C, N and MaxC.
func (r *renderer) textNode(n *Node, depth int) {
	r.pad(2 * depth)
	start := len(r.buf)
	switch n.Kind {
	case Waiting:
		r.buf = append(r.buf, "wait "...)
		r.buf = append(r.buf, n.WaitSig...)
		r.buf = append(r.buf, " -> unwait "...)
		r.buf = append(r.buf, n.UnwaitSig...)
	case Running:
		r.buf = append(r.buf, "run  "...)
		r.buf = append(r.buf, n.RunSig...)
	default:
		r.buf = append(r.buf, "hw   "...)
		r.buf = append(r.buf, n.RunSig...)
	}
	r.padFrom(start, 70)
	r.buf = append(r.buf, " C="...)
	start = len(r.buf)
	r.buf = n.C.Append(r.buf)
	r.padFrom(start, 10)
	r.buf = append(r.buf, " N="...)
	start = len(r.buf)
	r.buf = strconv.AppendInt(r.buf, n.N, 10)
	r.padFrom(start, 6)
	r.buf = append(r.buf, " maxC="...)
	r.buf = n.MaxC.Append(r.buf)
	r.buf = append(r.buf, '\n')
	r.endLine()
}

// WriteDOT renders the graph in Graphviz DOT form for external viewing.
func (g *Graph) WriteDOT(w io.Writer, name string) error {
	if name == "" {
		name = "awg"
	}
	r := newRenderer(w)
	r.buf = append(r.buf, "digraph "...)
	r.buf = strconv.AppendQuote(r.buf, name)
	r.buf = append(r.buf, " {\n  rankdir=TB;\n  node [shape=box, fontsize=10];\n"...)
	id := 0
	r.dotLevel(g.roots, 0, &id)
	r.buf = append(r.buf, "}\n"...)
	r.flush()
	return r.err
}

// dotLevel renders one sibling map in key order, numbering nodes in
// visit order from 1; each node's edge from parentID (0 for a root)
// follows its own line, and its subtree follows both.
func (r *renderer) dotLevel(m map[string]*Node, parentID int, id *int) {
	lo, hi := r.sorted(m)
	for i := lo; i < hi && r.err == nil; i++ {
		n := r.kids[i].node
		*id++
		myID := *id
		r.dotNode(n, parentID, myID)
		r.dotLevel(n.children, myID, id)
	}
	r.kids = r.kids[:lo]
}

// dotNode appends one node's statement
// `  n%d [label="%s", style=filled, fillcolor=%s];` and, below a root,
// its edge `  n%d -> n%d;`.
func (r *renderer) dotNode(n *Node, parentID, myID int) {
	r.buf = append(r.buf, "  n"...)
	r.buf = strconv.AppendInt(r.buf, int64(myID), 10)
	r.buf = append(r.buf, ` [label="`...)
	var color string
	switch n.Kind {
	case Waiting:
		r.buf = append(r.buf, "wait: "...)
		r.buf = append(r.buf, n.WaitSig...)
		r.buf = append(r.buf, `\nunwait: `...)
		r.buf = append(r.buf, n.UnwaitSig...)
		color = "lightblue"
	case Running:
		r.buf = append(r.buf, "run: "...)
		r.buf = append(r.buf, n.RunSig...)
		color = "palegreen"
	default:
		r.buf = append(r.buf, n.RunSig...)
		color = "lightsalmon"
	}
	r.buf = append(r.buf, `\nC=`...)
	r.buf = n.C.Append(r.buf)
	r.buf = append(r.buf, " N="...)
	r.buf = strconv.AppendInt(r.buf, n.N, 10)
	r.buf = append(r.buf, `", style=filled, fillcolor=`...)
	r.buf = append(r.buf, color...)
	r.buf = append(r.buf, "];\n"...)
	if parentID > 0 {
		r.buf = append(r.buf, "  n"...)
		r.buf = strconv.AppendInt(r.buf, int64(parentID), 10)
		r.buf = append(r.buf, " -> n"...)
		r.buf = strconv.AppendInt(r.buf, int64(myID), 10)
		r.buf = append(r.buf, ";\n"...)
	}
	r.endLine()
}
