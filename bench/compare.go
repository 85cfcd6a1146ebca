package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// repeatSets runs sets of all workloads, untraced, each workload in a
// process of its own, set i on seed+i, and prints for each end-to-end
// metric its median over the sets and its spread next to its bound. The
// spread is the driver's: the interquartile distance as a share of the
// median.
func repeatSets(w io.Writer, sets int, seed int64, secs float64, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(scratchRoot, "repeat-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	all := resultFile{Header: newHeader(referenceSizes)}
	for set := 0; set < sets; set++ {
		for _, wl := range workloads {
			path := filepath.Join(dir, "run.json")
			cmd := exec.Command(self, "-workload", wl.Name, "-seed", fmt.Sprint(seed+int64(set)),
				"-seconds", fmt.Sprint(secs), "-out", path)
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("set %d, %s: %w", set, wl.Name, err)
			}
			rf, err := readResultFile(path)
			if err != nil {
				return err
			}
			all.Runs = append(all.Runs, rf.Runs...)
			fmt.Fprintf(w, "set %d %s done\n", set, wl.Name)
		}
	}
	if out != "" {
		if err := writeResultFile(out, all); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "\n%-15s %-24s %12s %8s %8s  %s\n", "workload", "metric", "median", "spread", "bound", "")
	unsteady := 0
	for _, wl := range workloads {
		for _, m := range endToEnd {
			v := values(all, wl.Name, m.Name)
			note := ""
			if m.Name != "setup_s" && spread(v) > m.Bound {
				note = "UNSTEADY"
				unsteady++
			}
			fmt.Fprintf(w, "%-15s %-24s %12.5g %7.1f%% %7.1f%%  %s\n", wl.Name, m.Name, median(v), spread(v)*100, m.Bound*100, note)
		}
	}
	// The pool's content is fixed and the answers may not depend on
	// arrival order, so the two batch workloads share one report hash over
	// all seeds, and the two daemon workloads another.
	batchHashes, daemonHashes := make(map[string]bool), make(map[string]bool)
	for _, run := range all.Runs {
		if run.Workload == "ingest_grow" || run.Workload == "daemon_mixed" {
			daemonHashes[run.ReportSHA] = true
		} else {
			batchHashes[run.ReportSHA] = true
		}
	}
	if len(batchHashes) > 1 || len(daemonHashes) > 1 {
		return fmt.Errorf("report hashes differ between runs: batch %v, daemon %v", batchHashes, daemonHashes)
	}
	fmt.Fprintf(w, "report hashes identical over all %d runs\n", len(all.Runs))
	if unsteady > 0 {
		return fmt.Errorf("%d metrics spread wider than their bounds", unsteady)
	}
	return nil
}

// values lists one metric's values over a file's untraced runs of one
// workload.
func values(rf resultFile, workload, metric string) []float64 {
	var v []float64
	for _, run := range rf.Runs {
		if s, ok := run.Metrics[metric]; ok && run.Workload == workload && !run.Traced {
			v = append(v, s.Value)
		}
	}
	return v
}

// compareFiles sets a candidate's end-to-end medians against a base's,
// metric by metric and workload by workload. A worsening beyond the
// metric's bound is a regression; where either side's own spread exceeds
// the bound the metric is unresolved, not unchanged. Results measured on
// different machines, settings or sizes are not compared at all.
func compareFiles(w io.Writer, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare needs two result files: base candidate")
	}
	base, err := readResultFile(args[0])
	if err != nil {
		return err
	}
	cand, err := readResultFile(args[1])
	if err != nil {
		return err
	}
	hb, hc := base.Header, cand.Header
	hb.Commit, hc.Commit = "", ""
	if hb != hc {
		return fmt.Errorf("headers differ, not comparing:\n  %s: %+v\n  %s: %+v", args[0], hb, args[1], hc)
	}
	fmt.Fprintf(w, "%-15s %-24s %12s %12s %8s %8s  %s\n", "workload", "metric", "base", "candidate", "worse", "bound", "")
	regressions := 0
	for _, wl := range workloads {
		for _, m := range endToEnd {
			vb, vc := values(base, wl.Name, m.Name), values(cand, wl.Name, m.Name)
			if len(vb) == 0 || len(vc) == 0 {
				continue
			}
			worse := ratio(median(vc)-median(vb), median(vb))
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case spread(vb) > m.Bound || spread(vc) > m.Bound:
				verdict = fmt.Sprintf("unresolved (spread %.1f%% / %.1f%%)", spread(vb)*100, spread(vc)*100)
			case worse > m.Bound:
				verdict = "REGRESSION"
				regressions++
			}
			fmt.Fprintf(w, "%-15s %-24s %12.5g %12.5g %+7.1f%% %7.1f%%  %s\n",
				wl.Name, m.Name, median(vb), median(vc), worse*100, m.Bound*100, verdict)
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d metrics regressed beyond their bounds", regressions)
	}
	return nil
}
