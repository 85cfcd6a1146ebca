package impact

import (
	"sort"
	"testing"

	"tracescope/internal/scenario"
	"tracescope/internal/trace"
	"tracescope/internal/waitgraph"
)

// TestDiagWaitBreakdown is a calibration diagnostic: it classifies counted
// top-level driver waits by their topmost frames.
func TestDiagWaitBreakdown(t *testing.T) {
	corpus := scenario.Generate(scenario.Config{Seed: 1, Streams: 12, Episodes: 12})
	filter := trace.AllDrivers()

	type agg struct{ dwait, ddist trace.Duration }
	byKind := map[string]*agg{}
	distinct := map[trace.EventID]bool{}
	err := GraphsOver(corpus, corpus.InstancesOf(""), func(_ trace.InstanceRef, g *waitgraph.Graph, _ bool) {
		seen := map[trace.EventID]bool{}
		var walk func(n *waitgraph.Node, covered bool)
		walk = func(n *waitgraph.Node, covered bool) {
			if seen[n.Event] {
				return
			}
			seen[n.Event] = true
			if n.Type == trace.Wait {
				isDriver := filter.MatchStack(g.Stream, n.Stack)
				if isDriver && !covered {
					frames := g.Stream.StackStrings(n.Stack)
					kind := "?"
					for _, f := range frames {
						if filter.MatchFrame(f) {
							kind = f
							break
						}
					}
					ag := byKind[kind]
					if ag == nil {
						ag = &agg{}
						byKind[kind] = ag
					}
					ag.dwait += n.Cost
					if !distinct[n.Event] {
						distinct[n.Event] = true
						ag.ddist += n.Cost
					}
					covered = true
				}
				for _, c := range n.Children {
					walk(c, covered)
				}
			}
		}
		for _, r := range g.Roots {
			walk(r, false)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		kind         string
		dwait, ddist trace.Duration
	}
	var rows []row
	for k, v := range byKind {
		rows = append(rows, row{k, v.dwait, v.ddist})
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].dwait > rows[j].dwait })
	for _, r := range rows {
		t.Logf("%-28s dwait=%10v ddist=%10v mult=%.2f", r.kind, r.dwait, r.ddist, float64(r.dwait)/float64(r.ddist+1))
	}
}
