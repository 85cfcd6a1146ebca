package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sync"

	"tracescope"
)

// poolSeed fixes what the streams of both inputs contain. A run's seed
// decides the order in which they arrive, and with it every stream index
// and shard. Seeding the content instead moved the daemon's query cost by
// a factor of 1.7 from one seed to the next (the size of a slow class's
// Aggregated Wait Graph is heavy-tailed in the storms a seed happens to
// draw), which no bound would have held; arrival order is the input the
// repository promises its answers do not depend on, so it is also the one
// a hidden dependence would show under.
const poolSeed = 20140301

// generate produces the pool's streams one at a time in the arrival order
// the seed gives and hands each to fn with its position, so that no more
// than one generated stream is ever held. Streams [0, split) of the pool
// all arrive before the others: daemon_mixed posts the same half of the
// fleet on every seed, or how large the posted streams happen to be would
// move its latencies by a tenth.
func generate(seed int64, streams, split, episodes int, fn func(pos int, s *tracescope.Stream) error) error {
	cfg := tracescope.GenerateConfig{Seed: poolSeed, Streams: streams, Episodes: episodes}
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(split)
	for _, index := range rng.Perm(streams - split) {
		order = append(order, split+index)
	}
	for pos, index := range order {
		if err := fn(pos, tracescope.GenerateCorpusStream(cfg, index)); err != nil {
			return err
		}
	}
	return nil
}

// result is one run of one workload.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	ReportSHA string            `json:"report_sha256"`
	Metrics   map[string]sample `json:"metrics"`
	Spans     []span            `json:"spans,omitempty"`
}

// resultFile is what -out writes and -compare reads: one header and the
// runs measured under it.
type resultFile struct {
	Header header   `json:"header"`
	Runs   []result `json:"runs"`
}

func writeResultFile(path string, rf resultFile) error {
	data, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (resultFile, error) {
	var rf resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(data, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// run carries one workload run's inputs, its oracle tally and the
// metrics it has reported so far.
type run struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	sz       sizes
	workers  int
	dir      string   // scratch directory owned by this run
	log      *spanLog // nil unless traced
	diag     io.Writer

	mu        sync.Mutex
	attempted int
	failed    int

	reportSHA string
	metrics   map[string]sample
}

func newRun(workload string, seed int64, secs float64, traced bool, sz sizes, dir string, diag io.Writer) *run {
	r := &run{
		workload: workload, seed: seed, seconds: secs, traced: traced, sz: sz,
		workers: runtime.GOMAXPROCS(0), dir: dir, diag: diag,
		metrics: make(map[string]sample),
	}
	if traced {
		r.log = newSpanLog()
	}
	return r
}

// check counts one operation or oracle comparison; a false ok is a
// failure and is reported on the diagnostic stream.
func (r *run) check(ok bool, format string, args ...any) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(r.diag, "bench: %s: FAILED: %s\n", r.workload, fmt.Sprintf(format, args...))
	}
	return ok
}

// set reports one metric: value over n observations.
func (r *run) set(name string, value float64, n int) {
	r.metrics[name] = sample{Value: value, N: n}
}

// execute runs the workload and returns its result with exactly the
// metrics of the requested kind, every one of them present.
func (r *run) execute() (result, error) {
	var err error
	switch r.workload {
	case "batch_cold":
		err = runBatch(r, false)
	case "batch_resident":
		err = runBatch(r, true)
	case "ingest_grow":
		err = runDaemon(r, false)
	case "daemon_mixed":
		err = runDaemon(r, true)
	default:
		err = fmt.Errorf("unknown workload %q", r.workload)
	}
	if err != nil {
		return result{}, err
	}
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	out := make(map[string]sample, len(defs))
	for _, d := range defs {
		s := r.metrics[d.Name] // a per-layer metric the workload has no use for reads 0
		s.Unit = d.Unit
		out[d.Name] = s
	}
	res := result{
		Workload: r.workload, Seed: r.seed, Traced: r.traced,
		Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		ReportSHA: r.reportSHA, Metrics: out,
	}
	if r.log != nil {
		res.Spans = r.log.spans
	}
	return res, nil
}
