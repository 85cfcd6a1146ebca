package lint

import (
	"bytes"
	"encoding/json"
	"go/token"
	"testing"
)

// TestWriteSARIF checks the shape code-hosting UIs depend on: the
// schema/version pair, the driver name, one rule per reporting analyzer
// (sorted), and per-result ruleId plus physical location. Two identical
// calls must produce identical bytes — SARIF is a committed-artifact
// format here like every other output.
func TestWriteSARIF(t *testing.T) {
	diags := []Diagnostic{
		{
			Pos:      token.Position{Filename: "internal/ingest/server.go", Line: 10, Column: 2},
			Analyzer: "errdrop",
			Message:  "statement discards the error returned by app.Close",
		},
		{
			Pos:      token.Position{Filename: "internal/core/core.go", Line: 3, Column: 1},
			Analyzer: "mapiter",
			Message:  "map iteration order leaks",
		},
	}
	var a, b bytes.Buffer
	if err := WriteSARIF(&a, diags, All()); err != nil {
		t.Fatal(err)
	}
	if err := WriteSARIF(&b, diags, All()); err != nil {
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
				RuleID  string `json:"ruleId"`
				Level   string `json:"level"`
				Message struct {
					Text string `json:"text"`
				} `json:"message"`
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
	if run.Tool.Driver.Name != "tracelint" {
		t.Fatalf("driver name = %q", run.Tool.Driver.Name)
	}
	// Only the analyzers that reported become rules, sorted by id.
	if len(run.Tool.Driver.Rules) != 2 ||
		run.Tool.Driver.Rules[0].ID != "errdrop" ||
		run.Tool.Driver.Rules[1].ID != "mapiter" {
		t.Fatalf("rules = %+v", run.Tool.Driver.Rules)
	}
	for _, r := range run.Tool.Driver.Rules {
		if r.ShortDescription.Text == "" {
			t.Errorf("rule %s has no description", r.ID)
		}
	}
	if len(run.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(run.Results))
	}
	first := run.Results[0]
	if first.RuleID != "errdrop" || first.Level != "warning" {
		t.Fatalf("first result = %+v", first)
	}
	loc := first.Locations[0].PhysicalLocation
	if loc.ArtifactLocation.URI != "internal/ingest/server.go" ||
		loc.Region.StartLine != 10 || loc.Region.StartColumn != 2 {
		t.Fatalf("first location = %+v", loc)
	}
}

// TestWriteSARIFEmpty: a clean tree still produces a well-formed log
// with an empty (not absent) results array.
func TestWriteSARIFEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, nil, All()); err != nil {
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
