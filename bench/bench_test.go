package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the tables in
// metrics.go from drifting apart: same names, units, directions and
// bounds, in the same order.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if !reflect.DeepEqual(bj.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", bj.Paths)
	}
	var gotW []workloadDef
	for _, w := range bj.Workloads {
		gotW = append(gotW, workloadDef{w.Name, w.Why})
	}
	if !reflect.DeepEqual(gotW, workloads) {
		t.Errorf("workloads differ:\n json %v\n code %v", gotW, workloads)
	}
	var gotE, gotL []metricDef
	for _, m := range bj.EndToEnd {
		gotE = append(gotE, metricDef{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range bj.PerLayer {
		gotL = append(gotL, metricDef{m.Name, m.Unit, m.Better, 0})
	}
	if !reflect.DeepEqual(gotE, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", gotE, endToEnd)
	}
	if !reflect.DeepEqual(gotL, perLayer) {
		t.Errorf("per_layer differs:\n json %v\n code %v", gotL, perLayer)
	}
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that each run is correct and emits exactly the metrics
// BENCHMARK.json names for its kind, each with a unit.
func TestSmoke(t *testing.T) {
	bj := readBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, wl := range bj.Workloads {
		if !name.MatchString(wl.Name) {
			t.Errorf("workload name %q is malformed", wl.Name)
		}
		for _, traced := range []bool{false, true} {
			res, err := newRun(wl.Name, 1, 0, traced, tinySizes, t.TempDir(), io.Discard).execute()
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.Name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s traced=%v: %d of %d checks failed", wl.Name, traced, res.Failed, res.Attempted)
			}
			want := make(map[string]string)
			if traced {
				for _, m := range bj.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bj.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			for n, s := range res.Metrics {
				if !name.MatchString(n) {
					t.Errorf("%s: metric name %q is malformed", wl.Name, n)
				}
				if unit, ok := want[n]; !ok || s.Unit == "" || s.Unit != unit {
					t.Errorf("%s traced=%v: metric %s has unit %q, BENCHMARK.json says %q (named: %v)", wl.Name, traced, n, s.Unit, unit, ok)
				}
				if !traced && s.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.Name, n, s.Value)
				}
				delete(want, n)
			}
			for n := range want {
				t.Errorf("%s traced=%v: metric %s is named in BENCHMARK.json and was not emitted", wl.Name, traced, n)
			}
		}
	}
}
