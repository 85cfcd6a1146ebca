// Command bench is the repository's benchmark: four named workloads over
// the public facade and the ingest server, end-to-end metrics from an
// untraced run and per-layer metrics from a traced one. BENCHMARK.json at
// the repository root names the workloads and metrics; README.md beside
// this file says what each one means and which calls into the module the
// benchmark depends on.
//
// Usage:
//
//	go run ./bench -workload NAME [-seed N] [-seconds S] [-trace 0|1] [-out FILE]
//	go run ./bench -repeat N [-seed N] [-seconds S] [-out FILE]
//	go run ./bench -compare A.json B.json
//
// The last line of standard output of a workload run is one JSON object
// with the keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: batch_cold, batch_resident, ingest_grow or daemon_mixed")
		seed     = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		secs     = flag.Float64("seconds", 15, "how long to measure")
		traced   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		out      = flag.String("out", "", "also write the result (header, sample counts, spans) to this file")
		repeat   = flag.Int("repeat", 0, "run this many sets of all workloads, seeds seed..seed+N-1, and print each metric's spread")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments: base candidate")
	)
	flag.Parse()
	var err error
	switch {
	case *compare:
		err = compareFiles(os.Stdout, flag.Args())
	case *repeat > 0:
		err = repeatSets(os.Stdout, *repeat, *seed, *secs, *out)
	default:
		err = runOne(*workload, *seed, *secs, *traced != 0, *out)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

// scratchRoot is where every file the benchmark writes goes: inside the
// checkout, named in .gitignore, beside the build cache run.sh keeps.
const scratchRoot = ".bench_build"

func runOne(workload string, seed int64, secs float64, traced bool, out string) error {
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(scratchRoot, "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	res, err := newRun(workload, seed, secs, traced, referenceSizes, dir, os.Stderr).execute()
	if err != nil {
		return err
	}
	if out != "" {
		if err := writeResultFile(out, resultFile{Header: newHeader(referenceSizes), Runs: []result{res}}); err != nil {
			return err
		}
	}
	if err := printResult(os.Stdout, res); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d checks failed", workload, res.Failed, res.Attempted)
	}
	return nil
}

// printResult prints every metric by name with its unit and sample
// count, then the one-line JSON object the driver reads.
func printResult(w io.Writer, res result) error {
	fmt.Fprintf(w, "workload %s seed %d traced %v report %s\n", res.Workload, res.Seed, res.Traced, res.ReportSHA)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, make(map[string]value)}
	for _, name := range names {
		s := res.Metrics[name]
		fmt.Fprintf(w, "%-32s %14.6g %-6s n=%d\n", name, s.Value, s.Unit, s.N)
		last.Metrics[name] = value{s.Value, s.Unit}
	}
	line, err := json.Marshal(last)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
