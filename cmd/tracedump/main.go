// Command tracedump inspects a corpus written by tracegen: stream
// summaries, scenario-instance listings, latency histograms, thread-level
// snapshots, and rendered Wait Graphs for individual instances.
//
// The corpus is opened lazily: summaries, listings, and histograms come
// straight from the corpus.index metadata, and at most one stream is
// decoded — the one being inspected — so corpora much larger than RAM
// dump fine.
//
// Usage:
//
//	tracedump -corpus DIR                              # corpus summary
//	tracedump -corpus DIR -stats                       # on-disk format/storage stats
//	tracedump -corpus DIR -stream 3                    # one stream's threads + instances
//	tracedump -corpus DIR -scenario WebPageNavigation  # latency histogram
//	tracedump -corpus DIR -stream 3 -instance 2        # wait graph + snapshot
package main

import (
	"flag"
	"fmt"
	"os"

	"tracescope"
	"tracescope/internal/report"
	"tracescope/internal/scenario"
	"tracescope/internal/stats"
	"tracescope/internal/trace"
	"tracescope/internal/waitgraph"
)

func main() {
	var (
		dir      = flag.String("corpus", "", "corpus directory (required)")
		stream   = flag.Int("stream", -1, "stream index to inspect")
		instance = flag.Int("instance", -1, "instance index within -stream (renders its wait graph)")
		scen     = flag.String("scenario", "", "scenario whose latency histogram to print")
		depth    = flag.Int("depth", 6, "wait-graph render depth")
		csvOut   = flag.String("csv", "", "export: 'instances' for the corpus, 'events' with -stream")
		catalog  = flag.Bool("catalog", false, "print the scenario catalogue and exit")
		stats    = flag.Bool("stats", false, "print on-disk format and storage stats (intern tables, event blocks)")
	)
	flag.Parse()
	if *catalog {
		dumpCatalog()
		return
	}
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "tracedump: -corpus is required")
		flag.Usage()
		os.Exit(2)
	}
	if *stats {
		dumpStats(*dir)
		return
	}
	src, err := tracescope.OpenCorpusDir(*dir)
	if err != nil {
		fatal(err)
	}

	switch {
	case *csvOut == "instances":
		if err := trace.WriteSourceInstancesCSV(os.Stdout, src); err != nil {
			fatal(err)
		}
	case *csvOut == "events" && *stream >= 0:
		s := fetchStream(src, *stream)
		if err := s.WriteEventsCSV(os.Stdout); err != nil {
			fatal(err)
		}
	case *stream >= 0 && *instance >= 0:
		dumpInstance(src, *stream, *instance, *depth)
	case *stream >= 0:
		dumpStream(src, *stream)
	case *scen != "":
		dumpHistogram(src, *scen)
	default:
		dumpCorpus(src)
	}
}

func fetchStream(src tracescope.Source, idx int) *tracescope.Stream {
	if idx >= src.NumStreams() {
		fatal(fmt.Errorf("stream %d out of range (%d streams)", idx, src.NumStreams()))
	}
	s, err := src.Stream(idx)
	if err != nil {
		fatal(err)
	}
	return s
}

func dumpCatalog() {
	fmt.Printf("%-20s %-10s %-22s %10s %10s\n", "scenario", "process", "entry frame", "Tfast", "Tslow")
	for _, name := range scenario.All() {
		d, _ := scenario.Lookup(name)
		fmt.Printf("%-20s %-10s %-22s %10v %10v\n", d.Name, d.Process, d.EntryFrame, d.Tfast, d.Tslow)
	}
}

// dumpStats skims the corpus (the index with its intern table, and
// stream-file block framing) without decoding any event payloads, so it
// runs at I/O speed even on paper-scale corpora.
func dumpStats(dir string) {
	st, err := tracescope.CollectCorpusStats(dir)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("streams:     %d (%d instances, %d events)\n", st.Streams, st.Instances, st.Events)
	fmt.Printf("index:       %d bytes, defining %d frames and %d stacks shared across all streams\n",
		st.IndexBytes, st.Frames, st.Stacks)
	fmt.Printf("blocks:      %d (%d flate-compressed)\n", st.Blocks, st.CompressedBlocks)
	ratio := 100.0
	if st.EventBytesRaw > 0 {
		ratio = 100 * float64(st.EventBytesStored) / float64(st.EventBytesRaw)
	}
	fmt.Printf("event bytes: %d stored / %d raw (%.1f%%)\n", st.EventBytesStored, st.EventBytesRaw, ratio)
	fmt.Printf("streams on disk: %d bytes", st.StreamBytes)
	if st.Events > 0 {
		fmt.Printf(" (%.2f bytes/event)", float64(st.StreamBytes)/float64(st.Events))
	}
	fmt.Println()
}

func dumpCorpus(src tracescope.Source) {
	fmt.Printf("corpus: %d streams, %d instances, %d events, %v recorded\n\n",
		src.NumStreams(), src.NumInstances(), src.NumEvents(), src.TotalDuration())
	fmt.Println("scenarios:")
	for _, sc := range src.Scenarios() {
		fmt.Printf("  %-22s %6d instances\n", sc.Name, sc.Instances)
	}
	fmt.Println("\nstreams:")
	for i := 0; i < src.NumStreams(); i++ {
		m := src.StreamMeta(i)
		fmt.Printf("  %3d  %-16s %8d events  %4d instances  %v\n",
			i, m.ID, m.Events, len(m.Instances), m.Duration)
	}
}

func dumpStream(src tracescope.Source, idx int) {
	s := fetchStream(src, idx)
	fmt.Printf("stream %d (%s): %d events, %v, %d frames, %d stacks\n\n",
		idx, s.ID, len(s.Events), s.Duration(), s.NumFrames(), s.NumStacks())
	fmt.Println("instances:")
	for i, in := range s.Instances {
		fmt.Printf("  %3d  %-22s %-12s [%v, %v)  %v\n",
			i, in.Scenario, s.ThreadName(in.TID),
			tracescope.Duration(in.Start), tracescope.Duration(in.End), in.Duration())
	}
}

func dumpHistogram(src tracescope.Source, scen string) {
	var vals []float64
	for _, ref := range src.InstancesOf(scen) {
		vals = append(vals, src.InstanceMeta(ref).Duration().Milliseconds())
	}
	if len(vals) == 0 {
		fatal(fmt.Errorf("no instances of %q", scen))
	}
	fmt.Printf("%s: %d instances\n", scen, len(vals))
	fmt.Printf("  p10=%.0fms p50=%.0fms p90=%.0fms p99=%.0fms\n\n",
		stats.Percentile(vals, 10), stats.Percentile(vals, 50),
		stats.Percentile(vals, 90), stats.Percentile(vals, 99))
	max := stats.Percentile(vals, 99)
	h := stats.NewHistogram(0, max/20+1, 20)
	for _, v := range vals {
		h.Add(v)
	}
	fmt.Println(h)
}

func dumpInstance(src tracescope.Source, si, ii, depth int) {
	s := fetchStream(src, si)
	if ii >= len(s.Instances) {
		fatal(fmt.Errorf("instance %d out of range (%d instances)", ii, len(s.Instances)))
	}
	in := s.Instances[ii]
	b := waitgraph.NewBuilder(s, si, waitgraph.Options{})
	g := b.Instance(in)
	st := g.ComputeStats()
	fmt.Printf("stats: %d nodes (%d waits, %d running, %d hw), depth %d, wait %v, cpu %v\n\n",
		st.Nodes, st.Waits, st.Runnings, st.Hardware, st.MaxDepth, st.TotalWait, st.TotalRun)
	if err := g.WriteText(os.Stdout, depth, 3); err != nil {
		fatal(err)
	}
	fmt.Println()
	if err := waitgraph.WriteCriticalPath(os.Stdout, g, g.CriticalPath()); err != nil {
		fatal(err)
	}
	fmt.Println()
	if err := report.WriteThreadSnapshot(os.Stdout, s, in.Start, in.End, 3); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "tracedump: %v\n", err)
	os.Exit(1)
}
