package scenario

import (
	"fmt"
	"runtime"

	"tracescope/internal/drivers"
	"tracescope/internal/engine"
	"tracescope/internal/sim"
	"tracescope/internal/stats"
	"tracescope/internal/trace"
)

// Config parameterises corpus generation. The zero value is usable: it
// yields the default laptop-scale corpus documented in EXPERIMENTS.md.
type Config struct {
	// Seed drives all randomness; equal seeds yield identical corpora.
	Seed int64
	// Streams is the number of trace streams (machines). Zero means 120.
	Streams int
	// Episodes is the number of activity episodes per stream. Zero
	// means 18.
	Episodes int
	// EpisodeGap is the mean spacing between episode starts. Zero means
	// 140 ms; instances frequently outlive the gap, so episodes overlap.
	EpisodeGap trace.Duration
	// StormProb is the probability an episode is a contention storm
	// (stretched driver work, network stalls, possible hard faults).
	// Zero means 0.35.
	StormProb float64
	// Cores and Workers configure each simulated machine.
	Cores   int
	Workers int
	// MDULocks and FileTableLocks, when positive, fix the lock
	// granularity of every machine instead of randomising it per
	// machine — used by the lock-granularity sweep (§2.2's "reducing
	// the granularity of locks is a general principle").
	MDULocks       int
	FileTableLocks int
	// Parallelism bounds the number of streams generated concurrently.
	// Zero means GOMAXPROCS. Results are identical at any setting:
	// every stream derives from its own seeded generator.
	Parallelism int
	// SlowHW scales the storage-hardware service latencies (disk reads
	// and hard-fault page reads) by the given factor — an injected
	// slow-hardware fault for regression-diff exercises. Zero or one
	// means stock hardware. Only the log-normal medians scale, so the
	// per-stream RNG draw sequence is unchanged and a SlowHW corpus at
	// the same seed stays instance-aligned with the stock corpus.
	SlowHW float64
}

func (c *Config) applyDefaults() {
	if c.Streams <= 0 {
		c.Streams = 120
	}
	if c.Episodes <= 0 {
		c.Episodes = 18
	}
	if c.EpisodeGap <= 0 {
		c.EpisodeGap = 220 * trace.Millisecond
	}
	if c.StormProb <= 0 {
		c.StormProb = 0.35
	}
	if c.Cores <= 0 {
		c.Cores = 8
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
}

// themeWeights orders episode themes roughly as Table 1's instance counts.
var themeWeights = map[string]float64{
	WebPageNavigation:  7.7,
	BrowserTabCreate:   2.5,
	BrowserTabSwitch:   2.2,
	AppAccessControl:   1.5,
	BrowserFrameCreate: 1.3,
	BrowserTabClose:    1.0,
	MenuDisplay:        0.75,
	AppNonResponsive:   0.65,
}

// Generate produces a corpus of simulated trace streams. Streams are
// generated concurrently (bounded by Parallelism) but the corpus layout
// and every byte of every stream are independent of the parallelism:
// each stream has its own seeded generator and a fixed slot.
func Generate(cfg Config) *trace.Corpus {
	cfg.applyDefaults()
	streams := make([]*trace.Stream, cfg.Streams)
	// No unit fails, so the fold cannot; its per-worker states are unused.
	_, _ = engine.Fold(len(streams), engine.Options{Workers: cfg.Parallelism},
		func(int) struct{} { return struct{}{} }, func(_ struct{}, i int) error {
			streams[i] = generateStream(cfg, i)
			return nil
		})
	return &trace.Corpus{Streams: streams}
}

// GenerateStream produces stream index of Generate(cfg)'s corpus on its
// own: every stream derives from its own seeded generator, so
// GenerateStream(cfg, i) is byte-identical to Generate(cfg).Streams[i]
// without materialising the other streams.
func GenerateStream(cfg Config, index int) *trace.Stream {
	cfg.applyDefaults()
	if index < 0 || index >= cfg.Streams {
		panic(fmt.Sprintf("scenario: stream index %d out of range (%d streams)", index, cfg.Streams))
	}
	return generateStream(cfg, index)
}

// GenerateEach generates the corpus stream by stream, delivering each
// to fn in index order. At most Parallelism streams are in flight at
// once, so paper-scale corpora (tens of thousands of streams) never
// coexist in memory — the caller typically appends each stream to a
// directory corpus and drops it. Generation of stream i+Parallelism
// overlaps fn(i), so an I/O-bound fn pipelines with CPU-bound
// generation. A non-nil error from fn stops generation and is returned.
func GenerateEach(cfg Config, fn func(index int, s *trace.Stream) error) error {
	cfg.applyDefaults()
	par := cfg.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > cfg.Streams {
		par = cfg.Streams
	}
	if par <= 1 {
		for i := 0; i < cfg.Streams; i++ {
			if err := fn(i, generateStream(cfg, i)); err != nil {
				return err
			}
		}
		return nil
	}
	// A fixed window of par single-use result slots: stream i lands in
	// slot i%par, and the slot is relaunched with stream i+par the
	// moment it is consumed — bounded, ordered, and deadlock-free.
	win := make([]chan *trace.Stream, par)
	launch := func(i int) chan *trace.Stream {
		ch := make(chan *trace.Stream, 1)
		go func() { ch <- generateStream(cfg, i) }()
		return ch
	}
	next := 0
	for ; next < par; next++ {
		win[next] = launch(next)
	}
	for i := 0; i < cfg.Streams; i++ {
		s := <-win[i%par]
		if next < cfg.Streams {
			win[next%par] = launch(next)
			next++
		}
		if err := fn(i, s); err != nil {
			// Drain the in-flight generators before returning so none
			// outlive the call.
			for j := i + 1; j < next; j++ {
				<-win[j%par]
			}
			return err
		}
	}
	return nil
}

func generateStream(cfg Config, index int) *trace.Stream {
	rng := stats.NewRand(cfg.Seed + int64(index)*1_000_003 + 17)
	mcfg := drivers.Config{
		Encrypted:      rng.Bool(0.55),
		AVFilter:       rng.Bool(0.70),
		DiskProtection: rng.Bool(0.08),
		MDULocks:       2 + rng.Intn(4),
		FileTableLocks: 2 + rng.Intn(4),
	}
	if cfg.MDULocks > 0 {
		mcfg.MDULocks = cfg.MDULocks
	}
	if cfg.FileTableLocks > 0 {
		mcfg.FileTableLocks = cfg.FileTableLocks
	}
	lat := drivers.DefaultLatency()
	if cfg.SlowHW > 0 && cfg.SlowHW != 1 {
		lat.DiskRead = trace.Duration(float64(lat.DiskRead) * cfg.SlowHW)
		lat.HardFault = trace.Duration(float64(lat.HardFault) * cfg.SlowHW)
	}
	stack := drivers.NewStack(mcfg, lat, rng)
	k := sim.NewKernel(sim.Config{
		StreamID: fmt.Sprintf("machine-%04d", index),
		Cores:    cfg.Cores,
		Workers:  cfg.Workers,
		// NICs interleave transfers; disks have a shallow queue.
		DeviceChannels: map[string]int{"nic": 8, "disk": 2},
		// The machine-wide service host has a single dispatcher thread;
		// queueing behind it propagates cost across instances.
		PoolSizes: map[string]int{"SvcHost": 1, "Ndis": 8},
	})

	names := Selected()
	weights := make([]float64, len(names))
	for i, n := range names {
		weights[i] = themeWeights[n]
	}

	var at trace.Time
	for ep := 0; ep < cfg.Episodes; ep++ {
		at += trace.Time(rng.Exp(float64(cfg.EpisodeGap)))
		emitEpisode(k, stack, rng, cfg, at, names, weights)
	}
	k.Run(0)
	return k.Finish()
}

// emitEpisode spawns a burst of concurrent scenario instances sharing one
// lock bucket, so they contend and propagate cost to each other.
func emitEpisode(k *sim.Kernel, stack *drivers.Stack, rng *stats.Rand, cfg Config,
	at trace.Time, names []string, weights []float64) {

	bucket := rng.Intn(64)
	severity, netStall := 1.0, 1.0
	hardFault := false
	storm := rng.Bool(cfg.StormProb)

	theme := names[rng.WeightedPick(weights)]
	themeDef, _ := Lookup(theme)
	var nFore, nBack int
	if storm {
		// Storms: many concurrent instances, stretched driver work.
		severity = rng.Uniform(2, 4)
		netStall = rng.Uniform(1.5, 3.5)
		hardFault = rng.Bool(0.30)
		nFore = 5 + rng.Intn(4)
		nBack = 1 + rng.Intn(2)
	} else {
		// Calm periods: little concurrency, normal latencies. These
		// produce the fast contrast class.
		nFore = 1 + rng.Intn(2)
		nBack = rng.Intn(2)
	}

	faultGiven := false
	for i := 0; i < nFore; i++ {
		name := theme
		if i > 0 {
			// Co-instances cluster in the theme's process (several tabs
			// of one browser, say) so they share its application locks;
			// otherwise they are drawn from the selected catalogue or
			// the extra foreground scenarios.
			switch {
			case rng.Bool(0.9):
				if peer, ok := sameProcessPeer(rng, themeDef.Process, names, weights); ok {
					name = peer
				}
			case rng.Bool(0.5):
				name = names[rng.WeightedPick(weights)]
			default:
				extras := Extras()
				name = extras[rng.Intn(len(extras))]
			}
		}
		def, _ := Lookup(name)
		env := &Env{
			Stack: stack,
			Rng:   rng,
			// Instances work on nearby-but-distinct buckets: whether
			// they collide on fs.sys/fv.sys locks depends on the lock
			// granularity (bucket mod lock count), which is what the
			// granularity sweep exercises.
			Bucket: bucket + rng.Intn(4),
			// The application lock is shared episode-wide regardless.
			AppLock:  fmt.Sprintf("app:%s:%d", def.Process, bucket),
			Severity: severity,
			NetStall: netStall,
		}
		if hardFault && !faultGiven && (name == AppNonResponsive || name == BrowserTabSwitch) {
			env.HardFault = true
			faultGiven = true
		}
		spawnInstance(k, rng, name, env, at, i)
	}
	bgNames := Backgrounds()
	for i := 0; i < nBack; i++ {
		name := bgNames[rng.Intn(len(bgNames))]
		def, _ := Lookup(name)
		env := &Env{
			Stack:  stack,
			Rng:    rng,
			Bucket: bucket,
			// Background services serialise on one machine-wide work
			// queue per process (an AV engine has a single scan queue),
			// so overlapping episodes chain through it.
			AppLock:  "app:" + def.Process,
			Severity: severity,
			NetStall: netStall,
		}
		spawnInstance(k, rng, name, env, at, nFore+i)
	}
}

// sameProcessPeer picks a scenario initiated by the given process,
// weighted like the episode themes.
func sameProcessPeer(rng *stats.Rand, process string, names []string, weights []float64) (string, bool) {
	var peers []string
	var w []float64
	for i, n := range names {
		if d, ok := Lookup(n); ok && d.Process == process {
			peers = append(peers, n)
			w = append(w, weights[i])
		}
	}
	if len(peers) == 0 {
		return "", false
	}
	return peers[rng.WeightedPick(w)], true
}

// spawnInstance starts the initiating thread of one scenario instance and
// records its instance tuple when the program completes.
func spawnInstance(k *sim.Kernel, rng *stats.Rand, name string, env *Env, episodeAt trace.Time, ordinal int) {
	def, ok := Lookup(name)
	if !ok {
		panic("scenario: unknown scenario " + name)
	}
	start := episodeAt + trace.Time(rng.Exp(float64(12*trace.Millisecond)))
	program := def.Build(env)
	threadName := "UI"
	if ordinal > 0 {
		threadName = fmt.Sprintf("W%d", ordinal)
	}
	base := []string{def.Process + "!Main"}
	var th *sim.Thread
	th = k.Spawn(def.Process, threadName, base, program, start, func(end trace.Time) {
		k.RecordInstance(trace.Instance{
			Scenario: def.Name,
			TID:      th.TID(),
			Start:    start,
			End:      end,
		})
	})
}
