package impact_test

import (
	"fmt"

	"tracescope/internal/impact"
	"tracescope/internal/scenario"
	"tracescope/internal/trace"
	"tracescope/internal/waitgraph"
)

// Example measures the motivating case of §2.2: three instances whose
// time is dominated by waiting on device drivers.
func Example() {
	stream := scenario.MotivatingCase()
	corpus := trace.NewCorpus(stream)
	m := impact.NewPartial()
	drivers := trace.NewFilterCache(trace.AllDrivers())
	err := impact.GraphsOver(corpus, corpus.InstancesOf(""), func(_ trace.InstanceRef, g *waitgraph.Graph, _ bool) {
		m.AddGraph(g, drivers)
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("instances: %d\n", m.Instances)
	fmt.Printf("waiting dominates CPU: %v\n", m.IAwait() > 3*m.IArun())
	// Output:
	// instances: 3
	// waiting dominates CPU: true
}
