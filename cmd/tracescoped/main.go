// Command tracescoped is the continuous-ingestion analysis daemon: it
// owns a corpus directory, accepts trace streams over HTTP, folds each
// one into persistent incremental analysis state, and serves live
// queries over everything ingested so far.
//
// Usage:
//
//	tracescoped -corpus DIR [-addr HOST:PORT] [-components PATTERN]
//	            [-workers N] [-timing] [-pprof ADDR]
//
// Endpoints:
//
//	POST /ingest                   one TSCP binary stream per request
//	GET  /healthz                  liveness + corpus totals
//	GET  /metrics                  Prometheus text exposition
//	GET  /metrics.json             the same registry as JSON
//	GET  /scenarios                scenario names with instance counts
//	GET  /impact?scenario=S        impact metrics (omit scenario: all)
//	GET  /causality?scenario=S     ranked contrast patterns (&top=N &k=K)
//	GET  /awg?scenario=S           slow-class AWG (&format=text|dot)
//	GET  /corpus                   on-disk corpus shape
//	GET  /diff?baseline=DIR        corpus-vs-corpus diff of a snapshot of
//	                               the live state against a baseline corpus
//	                               directory (&top=N &k=K &format=json|md)
//
// The daemon prints its listening address on startup (so -addr :0
// works in scripts) and shuts down gracefully on SIGINT/SIGTERM. It is
// the corpus directory's only writer while it runs: a stream produced
// elsewhere enters by POST /ingest (tracegen -stream is a reference
// client), or is appended while the daemon is stopped and folded by the
// warm-up at its next start. Without -timing the metrics registry is
// clockless: two daemons fed the same streams serve byte-identical
// /metrics, whatever the arrival order or timing.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tracescope/internal/cliflags"
	"tracescope/internal/ingest"
	"tracescope/internal/obs"
	"tracescope/internal/scenario"
	"tracescope/internal/trace"
)

func main() {
	var (
		dir        = flag.String("corpus", "", "corpus directory to own (required; created if missing)")
		addr       = flag.String("addr", "127.0.0.1:8754", "listen address (use :0 for an ephemeral port)")
		components = flag.String("components", "*.sys", "component pattern under analysis")
		timing     = flag.Bool("timing", false, "record real span durations in /metrics (breaks snapshot determinism)")
	)
	var cf cliflags.Flags
	cf.RegisterWorkers(flag.CommandLine)
	cf.RegisterPprof(flag.CommandLine)
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "tracescoped: -corpus is required")
		flag.Usage()
		os.Exit(2)
	}

	var recOpts []obs.MemOption
	if *timing {
		recOpts = append(recOpts, obs.WithClock(func() int64 { return time.Now().UnixNano() }))
	}
	mem := obs.NewMemRecorder(recOpts...)
	cf.StartPprof("tracescoped", mem)
	srv, err := ingest.NewServer(ingest.Config{
		Dir:        *dir,
		Filter:     trace.NewComponentFilter(*components),
		Thresholds: scenario.Thresholds,
		Workers:    cf.Workers,
		Recorder:   mem,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracescoped: %v\n", err)
		os.Exit(1)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracescoped: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("tracescoped listening on http://%s (corpus %s)\n", ln.Addr(), *dir)

	hs := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Printf("tracescoped: %v, shutting down\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "tracescoped: shutdown: %v\n", err)
			os.Exit(1)
		}
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "tracescoped: %v\n", err)
			os.Exit(1)
		}
	}
}
