package tracetest_test

import (
	"testing"

	"tracescope/internal/trace"
	"tracescope/internal/trace/tracetest"
	"tracescope/internal/waitgraph"
)

// TestRandomStreamShapes: the generator delivers the shapes its doc
// comment promises, so the kernel tests built on it cover them.
func TestRandomStreamShapes(t *testing.T) {
	var orphans, diamonds, deep, noStack, sparse int
	for seed := int64(1); seed <= 20; seed++ {
		s := tracetest.RandomStream(seed, 3+int(seed%5), 8+int(seed%23))
		if err := s.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i := 1; i < len(s.Events); i++ {
			if s.Events[i].Time < s.Events[i-1].Time {
				t.Fatalf("seed %d: events out of time order at %d", seed, i)
			}
		}
		for _, e := range s.Events {
			if e.Stack == trace.NoStack {
				noStack++
			}
			if int(e.TID) >= len(s.Events) {
				sparse++
			}
		}
		b := waitgraph.NewBuilder(s, 0, waitgraph.Options{})
		parents := make(map[*waitgraph.Node]int)
		for _, in := range s.Instances {
			b.Instance(in).Walk(func(n *waitgraph.Node, depth int) bool {
				if n.Type == trace.Wait && !n.HasUnwait {
					orphans++
				}
				if depth >= 3 {
					deep++
				}
				for _, c := range n.Children {
					parents[c]++
				}
				return true
			})
		}
		for _, n := range parents {
			if n > 1 {
				diamonds++
			}
		}
	}
	for name, n := range map[string]int{
		"orphan waits": orphans, "diamonds": diamonds, "nodes three waits deep": deep,
		"NoStack events": noStack, "events on sparse thread IDs": sparse,
	} {
		if n == 0 {
			t.Errorf("no %s in 20 seeds", name)
		}
	}
}
