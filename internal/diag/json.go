// Machine-readable findings report — the JSON array `tracevet -json`
// prints and the ingest gate's 400 body carries as "violations".

package diag

import (
	"encoding/json"
	"io"
)

// Finding is the JSON shape of one diagnostic.
type Finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
	Severity string `json:"severity"`
}

// Findings converts diagnostics to the JSON shape, preserving order;
// each finding carries its resolved severity level.
func Findings(diags []Diagnostic) []Finding {
	out := make([]Finding, 0, len(diags))
	for _, d := range diags {
		out = append(out, Finding{
			File: d.Pos.Filename, Line: d.Pos.Line, Col: d.Pos.Column,
			Analyzer: d.Analyzer, Message: d.Message, Severity: d.Severity.Level(),
		})
	}
	return out
}

// WriteJSON renders the diagnostics as a 2-space-indented JSON array.
func WriteJSON(w io.Writer, diags []Diagnostic) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(Findings(diags))
}
