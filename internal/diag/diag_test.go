package diag

import (
	"bytes"
	"encoding/json"
	"go/token"
	"strings"
	"testing"
)

func mk(file string, line int, analyzer, msg string, sev Severity) Diagnostic {
	return Diagnostic{
		Pos:      token.Position{Filename: file, Line: line, Column: 1},
		Analyzer: analyzer,
		Message:  msg,
		Severity: sev,
	}
}

// TestSeverityLevel pins the zero-value-means-warning contract: a
// finding that sets no severity renders as a warning.
func TestSeverityLevel(t *testing.T) {
	cases := []struct {
		sev  Severity
		want string
	}{
		{"", "warning"},
		{SevWarning, "warning"},
		{SevError, "error"},
		{SevNote, "note"},
	}
	for _, c := range cases {
		if got := c.sev.Level(); got != c.want {
			t.Errorf("Severity(%q).Level() = %q, want %q", string(c.sev), got, c.want)
		}
	}
}

func TestExitCode(t *testing.T) {
	if got := ExitCode(0, false); got != 0 {
		t.Errorf("clean run: got %d, want 0", got)
	}
	if got := ExitCode(3, false); got != 1 {
		t.Errorf("findings: got %d, want 1", got)
	}
	if got := ExitCode(3, true); got != 2 {
		t.Errorf("operational failure wins: got %d, want 2", got)
	}
}

// TestSortIgnoresSeverity: severity is presentation, not a sort key —
// two findings differing only in severity keep their input order.
func TestSortIgnoresSeverity(t *testing.T) {
	a := mk("a", 1, "x", "m", SevError)
	b := mk("a", 1, "x", "m", SevNote)
	in := []Diagnostic{a, b}
	Sort(in)
	if in[0].Severity != SevError || in[1].Severity != SevNote {
		t.Fatalf("stable order not kept: %v", in)
	}
}

// TestWriteSARIFSeverities: each finding's level comes from its own
// severity, and the rule table is sorted with docs applied.
func TestWriteSARIFSeverities(t *testing.T) {
	diags := []Diagnostic{
		mk("corpus.index", 3, "index-seq", "gap", SevError),
		mk("stream-00001.tsc4", 1, "tail-truncated", "torn tail", SevNote),
		mk("stream-00001.tsc4", 2, "wait-pair", "orphan wait", ""),
	}
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, "tracevet", diags, map[string]string{
		"index-seq": "index sequence continuity",
	}); err != nil {
		t.Fatal(err)
	}
	var log struct {
		Runs []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID string `json:"ruleId"`
				Level  string `json:"level"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatal(err)
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "tracevet" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	wantRules := []string{"index-seq", "tail-truncated", "wait-pair"}
	for i, r := range run.Tool.Driver.Rules {
		if r.ID != wantRules[i] {
			t.Errorf("rule[%d] = %q, want %q", i, r.ID, wantRules[i])
		}
	}
	wantLevels := []string{"error", "note", "warning"}
	for i, r := range run.Results {
		if r.Level != wantLevels[i] {
			t.Errorf("result[%d].level = %q, want %q", i, r.Level, wantLevels[i])
		}
	}
}

// TestFindingsSeverityGate: every JSON finding carries its resolved
// severity, the zero value as "warning".
func TestFindingsSeverityGate(t *testing.T) {
	diags := []Diagnostic{mk("a", 1, "x", "m", SevError), mk("a", 2, "x", "m", "")}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, diags); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"severity": "error"`) || !strings.Contains(out, `"severity": "warning"`) {
		t.Errorf("findings must carry their severity: %s", out)
	}
}

// TestWriteSARIF checks the shape code-hosting UIs depend on: the
// schema/version pair, the driver name, one rule per reporting rule id
// (sorted), and per-result ruleId plus physical location. Two identical
// calls must produce identical bytes — SARIF is a committed-artifact
// format here like every other output.
func TestWriteSARIF(t *testing.T) {
	diags := []Diagnostic{
		{
			Pos:      token.Position{Filename: "stream-00003.tsc4", Line: 10, Column: 2},
			Analyzer: "wait-pair",
			Message:  "unwait without a matching wait",
		},
		{
			Pos:      token.Position{Filename: "corpus.index", Line: 3, Column: 1},
			Analyzer: "index-seq",
			Message:  "sequence gap",
		},
	}
	docs := map[string]string{"wait-pair": "wait/unwait pairing", "index-seq": "index sequence continuity"}
	var a, b bytes.Buffer
	if err := WriteSARIF(&a, "tracevet", diags, docs); err != nil {
		t.Fatal(err)
	}
	if err := WriteSARIF(&b, "tracevet", diags, docs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("WriteSARIF is not deterministic")
	}

	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID               string `json:"id"`
						ShortDescription struct {
							Text string `json:"text"`
						} `json:"shortDescription"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Level     string `json:"level"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine   int `json:"startLine"`
							StartColumn int `json:"startColumn"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(a.Bytes(), &log); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if log.Version != "2.1.0" || log.Schema == "" {
		t.Fatalf("version/schema = %q/%q", log.Version, log.Schema)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "tracevet" {
		t.Fatalf("driver name = %q", run.Tool.Driver.Name)
	}
	rules := run.Tool.Driver.Rules
	if len(rules) != 2 || rules[0].ID != "index-seq" || rules[1].ID != "wait-pair" {
		t.Fatalf("rules = %+v", rules)
	}
	for _, r := range rules {
		if r.ShortDescription.Text != docs[r.ID] {
			t.Errorf("rule %s described as %q", r.ID, r.ShortDescription.Text)
		}
	}
	if len(run.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(run.Results))
	}
	first := run.Results[0]
	if first.RuleID != "wait-pair" || first.Level != "warning" {
		t.Fatalf("first result = %+v", first)
	}
	loc := first.Locations[0].PhysicalLocation
	if loc.ArtifactLocation.URI != "stream-00003.tsc4" ||
		loc.Region.StartLine != 10 || loc.Region.StartColumn != 2 {
		t.Fatalf("first location = %+v", loc)
	}
}

// TestWriteSARIFEmpty: a clean run still produces a well-formed log
// with an empty (not absent) results array.
func TestWriteSARIFEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, "tracevet", nil, nil); err != nil {
		t.Fatal(err)
	}
	var log map[string]any
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatal(err)
	}
	runs := log["runs"].([]any)
	results, ok := runs[0].(map[string]any)["results"].([]any)
	if !ok || len(results) != 0 {
		t.Fatalf("results = %v, want empty array", results)
	}
}
