package baseline

import (
	"sort"
	"strings"

	"tracescope/internal/trace"
)

// StackMine is a simplified reimplementation of the paper's predecessor
// system (Han et al., ICSE 2012, discussed in §6): costly-pattern mining
// over callstacks. It aggregates wait-event cost by shared callstack
// prefixes (outermost-first), producing ranked within-thread wait
// patterns. Unlike the causality analysis, it cannot connect behaviours
// across threads: the unwait side and the running work behind a wait are
// invisible to it — which is exactly the gap the ASPLOS'14 paper fills
// with cross-thread Signature Set Tuples.

// StackPattern is one mined callstack-prefix pattern.
type StackPattern struct {
	// Frames is the shared prefix, outermost first.
	Frames []string
	// Cost aggregates the wait time of all events sharing the prefix;
	// Count is the number of such events.
	Cost  trace.Duration
	Count int64
}

// String renders the prefix in call order.
func (p StackPattern) String() string {
	return strings.Join(p.Frames, " > ")
}

// StackMineResult carries the ranked patterns of one mining run.
type StackMineResult struct {
	Patterns  []StackPattern
	TotalWait trace.Duration
}

// stackTrieNode aggregates wait cost over callstack prefixes.
type stackTrieNode struct {
	frame    string
	cost     trace.Duration
	count    int64
	children map[string]*stackTrieNode
}

func (n *stackTrieNode) child(frame string) *stackTrieNode {
	if n.children == nil {
		n.children = make(map[string]*stackTrieNode)
	}
	c, ok := n.children[frame]
	if !ok {
		c = &stackTrieNode{frame: frame}
		n.children[frame] = c
	}
	return c
}

// MineStacks aggregates the source's wait events into a callstack-prefix
// trie and extracts maximal patterns with at least minSupport occurrences,
// ranked by total cost. Only events whose stacks contain a component of
// the filter participate, mirroring how analysts scope a StackMine run.
// Streams are decoded one at a time, so out-of-core sources run within
// bounded memory (only the trie — frame strings, not events — is
// retained across streams).
func MineStacks(src trace.Source, filter *trace.ComponentFilter, minSupport int64) (*StackMineResult, error) {
	if minSupport <= 0 {
		minSupport = 2
	}
	root := &stackTrieNode{}
	res := &StackMineResult{}
	err := forEachStream(src, func(s *trace.Stream) {
		for _, e := range s.Events {
			if e.Type != trace.Wait || e.Cost <= 0 {
				continue
			}
			if filter != nil && !filter.MatchStack(s, e.Stack) {
				continue
			}
			res.TotalWait += e.Cost
			// Insert outermost-first so prefixes share call context.
			frames := s.StackStrings(e.Stack)
			node := root
			for i := len(frames) - 1; i >= 0; i-- {
				node = node.child(frames[i])
				node.cost += e.Cost
				node.count++
			}
		}
	})
	if err != nil {
		return nil, err
	}

	// Extract maximal supported prefixes: descend while a child keeps
	// (almost) all of the parent's support; emit where support splits or
	// the stack ends.
	var prefix []string
	var walk func(n *stackTrieNode)
	walk = func(n *stackTrieNode) {
		prefix = append(prefix, n.frame)
		defer func() { prefix = prefix[:len(prefix)-1] }()

		// A dominant child continues the pattern without emitting.
		var dominant *stackTrieNode
		for _, c := range n.children {
			if c.count == n.count {
				dominant = c
				break
			}
		}
		if dominant != nil {
			walk(dominant)
			return
		}
		if n.count >= minSupport {
			frames := make([]string, len(prefix))
			copy(frames, prefix)
			res.Patterns = append(res.Patterns, StackPattern{
				Frames: frames, Cost: n.cost, Count: n.count,
			})
		}
		for _, c := range sortedChildren(n) {
			if c.count >= minSupport {
				walk(c)
			}
		}
	}
	for _, c := range sortedChildren(root) {
		if c.count >= minSupport {
			walk(c)
		}
	}
	sort.Slice(res.Patterns, func(i, j int) bool {
		if res.Patterns[i].Cost != res.Patterns[j].Cost {
			return res.Patterns[i].Cost > res.Patterns[j].Cost
		}
		return res.Patterns[i].String() < res.Patterns[j].String()
	})
	return res, nil
}

func sortedChildren(n *stackTrieNode) []*stackTrieNode {
	out := make([]*stackTrieNode, 0, len(n.children))
	for _, c := range n.children {
		out = append(out, c)
	}
	//lint:ignore unstablesort children are keyed by frame, so frames are unique and ties impossible
	sort.Slice(out, func(i, j int) bool { return out[i].frame < out[j].frame })
	return out
}

// Top returns the first n patterns.
func (r *StackMineResult) Top(n int) []StackPattern {
	if n > len(r.Patterns) {
		n = len(r.Patterns)
	}
	return r.Patterns[:n]
}
