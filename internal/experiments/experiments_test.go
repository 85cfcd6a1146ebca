package experiments

import (
	"bytes"
	"strings"
	"testing"

	"tracescope/internal/scenario"
)

func smallSuite(t *testing.T) *Suite {
	t.Helper()
	return NewSuiteOptions(scenario.Config{Seed: 5, Streams: 8, Episodes: 8})
}

func TestHeadlineComparisons(t *testing.T) {
	s := smallSuite(t)
	m, comps := s.Headline()
	if m.Instances == 0 {
		t.Fatal("no instances")
	}
	if len(comps) != 4 {
		t.Fatalf("comparisons = %d, want 4", len(comps))
	}
	for _, c := range comps {
		if c.Paper == "" || c.Measured == "" {
			t.Errorf("incomplete comparison %+v", c)
		}
	}
}

func TestAllTablesRender(t *testing.T) {
	s := smallSuite(t)
	t1, err := s.Table1()
	if err != nil {
		t.Fatal(err)
	}
	t2, err := s.Table2()
	if err != nil {
		t.Fatal(err)
	}
	t3, err := s.Table3()
	if err != nil {
		t.Fatal(err)
	}
	t4, err := s.Table4()
	if err != nil {
		t.Fatal(err)
	}
	red, err := s.Reduction()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	// Each table renders and includes every selected scenario row.
	for name, write := range map[string]func() error{
		"table1":    func() error { return t1.Write(&buf) },
		"table2":    func() error { return t2.Write(&buf) },
		"table3":    func() error { return t3.Write(&buf) },
		"table4":    func() error { return t4.Write(&buf) },
		"reduction": func() error { return red.Write(&buf) },
	} {
		buf.Reset()
		if err := write(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out := buf.String()
		for _, scen := range scenario.Selected() {
			if !strings.Contains(out, scen) {
				t.Errorf("%s misses scenario %s", name, scen)
			}
		}
	}
}

func TestFiguresRender(t *testing.T) {
	s := smallSuite(t)
	var buf bytes.Buffer
	if err := s.Figure1(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "BrowserTabCreate took") {
		t.Error("figure 1 misses the case outcome")
	}
	buf.Reset()
	if err := s.Figure2(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fv.sys!QueryFileTable", "se.sys!ReadDecrypt", "HardwareService"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("figure 2 misses %q", want)
		}
	}
}

func TestHardFaultAndBaselines(t *testing.T) {
	s := smallSuite(t)
	var buf bytes.Buffer
	if err := s.HardFaultCase(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "slowest AppNonResponsive instance") {
		t.Error("hard-fault case misses the worst instance line")
	}
	buf.Reset()
	if err := s.Baselines(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "call-graph profile") || !strings.Contains(out, "lock-contention report") {
		t.Error("baselines output incomplete")
	}
}

func TestWriteMarkdown(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation in -short mode")
	}
	s := smallSuite(t)
	var buf bytes.Buffer
	if err := s.WriteMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# Experiments: paper vs measured",
		"§5.1 Headline",
		"Table 1", "Table 2", "Table 3", "Table 4",
		"Figure 1", "Figure 2",
		"hard-fault", "baseline comparison",
		"lock-granularity sweep",
		"| IAwait | 36.4% |",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q", want)
		}
	}
	// Every selected scenario appears.
	for _, name := range scenario.Selected() {
		if !strings.Contains(out, name) {
			t.Errorf("markdown missing scenario %s", name)
		}
	}
}

func TestGranularitySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep generates four corpora")
	}
	s := NewSuiteOptions(scenario.Config{Seed: 2, Streams: 8, Episodes: 6})
	tb, err := s.Granularity()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 lock settings", len(tb.Rows))
	}
	var buf bytes.Buffer
	if err := tb.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "IAwait") {
		t.Error("sweep table malformed")
	}
}

func TestImpactByScenarioAndComponents(t *testing.T) {
	s := smallSuite(t)
	tb, err := s.ImpactByScenario()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != len(scenario.Selected()) {
		t.Errorf("rows = %d", len(tb.Rows))
	}
	ct, err := s.Components()
	if err != nil {
		t.Fatal(err)
	}
	if len(ct.Rows) == 0 {
		t.Error("no component rows")
	}
}

func TestWriteHTML(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation in -short mode")
	}
	s := smallSuite(t)
	var buf bytes.Buffer
	if err := s.WriteHTML(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"<!DOCTYPE html>", "tracescope evaluation report",
		"Table 1", "Figure 2", "Top patterns: BrowserTabCreate",
		"propagated through",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("HTML report missing %q", want)
		}
	}
}
