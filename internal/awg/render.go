package awg

import (
	"io"
	"strconv"
	"sync"
	"unicode/utf8"
)

// renderFlush is the buffered size at which a render hands its bytes to
// the writer: a forest of any size renders in this much memory.
const renderFlush = 32 << 10

// spaces is sliced for padding; longer pads take it more than once.
const spaces = "                                                                "

// renderer appends a rendering into one buffer, flushed to w as it
// fills. It visits nodes in Roots and Children order, which a finished
// graph has stored.
type renderer struct {
	w   io.Writer
	buf []byte
	err error // the first write error; nothing is written after it
}

// renderers holds renderers done with, so that a render reuses an
// earlier one's buffer instead of allocating its own.
var renderers = sync.Pool{New: func() any {
	// A flush's worth of lines plus the line that crosses the threshold.
	return &renderer{buf: make([]byte, 0, renderFlush+renderFlush/4)}
}}

// newRenderer returns an empty renderer writing to w; done returns it.
func newRenderer(w io.Writer) *renderer {
	r := renderers.Get().(*renderer)
	r.w = w
	return r
}

// done flushes what is buffered, returns the renderer to the pool and
// the first write error.
func (r *renderer) done() error {
	r.flush()
	err := r.err
	r.w, r.err = nil, nil
	renderers.Put(r)
	return err
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

// WriteText renders the graph as an indented tree (the Figure 2 view):
// each waiting node shows its wait→unwait signature pair, leaves show
// running or hardware signatures, and every node carries its aggregated
// cost and occurrence count.
func (g *Graph) WriteText(w io.Writer, maxDepth int) error {
	if maxDepth <= 0 {
		maxDepth = 8
	}
	r := newRenderer(w)
	r.textLevel(g.Roots(), 0, maxDepth)
	return r.done()
}

// textLevel renders one sibling list at depth, each node followed by
// its subtree.
func (r *renderer) textLevel(nodes []*Node, depth, maxDepth int) {
	for _, n := range nodes {
		if r.err != nil {
			return
		}
		r.textNode(n, depth)
		if depth+1 < maxDepth {
			r.textLevel(n.Children(), depth+1, maxDepth)
		}
	}
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
	r.dotLevel(g.Roots(), 0, &id)
	r.buf = append(r.buf, "}\n"...)
	return r.done()
}

// dotLevel renders one sibling list, numbering nodes in visit order
// from 1; each node's edge from parentID (0 for a root) follows its own
// line, and its subtree follows both.
func (r *renderer) dotLevel(nodes []*Node, parentID int, id *int) {
	for _, n := range nodes {
		if r.err != nil {
			return
		}
		*id++
		myID := *id
		r.dotNode(n, parentID, myID)
		r.dotLevel(n.Children(), myID, id)
	}
}

// dotNode appends one node's statement
// `  n%d [label="%s", style=filled, fillcolor=%s];` and, below a root,
// its edge `  n%d -> n%d;`. Signatures come from uploaded streams, so
// they are escaped (dotEscape) to keep the label one quoted string.
func (r *renderer) dotNode(n *Node, parentID, myID int) {
	r.buf = append(r.buf, "  n"...)
	r.buf = strconv.AppendInt(r.buf, int64(myID), 10)
	r.buf = append(r.buf, ` [label="`...)
	var color string
	switch n.Kind {
	case Waiting:
		r.buf = append(r.buf, "wait: "...)
		r.buf = dotEscape(r.buf, n.WaitSig)
		r.buf = append(r.buf, `\nunwait: `...)
		r.buf = dotEscape(r.buf, n.UnwaitSig)
		color = "lightblue"
	case Running:
		r.buf = append(r.buf, "run: "...)
		r.buf = dotEscape(r.buf, n.RunSig)
		color = "palegreen"
	default:
		r.buf = dotEscape(r.buf, n.RunSig)
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

// dotEscape appends s for use inside a double-quoted DOT string: '"' and
// '\' take a backslash and a newline becomes the `\n` line break. A
// signature without those bytes is appended as it is.
func dotEscape(buf []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"', '\\':
			buf = append(buf, s[start:i]...)
			buf = append(buf, '\\', c)
			start = i + 1
		case '\n':
			buf = append(buf, s[start:i]...)
			buf = append(buf, `\n`...)
			start = i + 1
		}
	}
	return append(buf, s[start:]...)
}
