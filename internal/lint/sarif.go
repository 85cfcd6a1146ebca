// sarif renders the suite's findings as a SARIF 2.1.0 log — the
// interchange format code-hosting UIs ingest to annotate pull requests
// with static-analysis results. The writer itself lives in
// internal/diag (shared with tracevet); this wrapper binds the
// tracelint driver name and derives the rule table from the analyzer
// suite.
package lint

import (
	"io"

	"tracescope/internal/diag"
)

// WriteSARIF renders the diagnostics as one SARIF 2.1.0 run of the
// tracelint driver. Rules are derived from the analyzers that actually
// reported (plus the "ignore" pseudo-analyzer when present), sorted by
// id; results keep the diagnostics' deterministic order. All findings
// are level "warning": the suite's severity signal is its exit status,
// not a per-finding ranking.
func WriteSARIF(w io.Writer, diags []Diagnostic, analyzers []*Analyzer) error {
	docs := make(map[string]string, len(analyzers)+1)
	for _, a := range analyzers {
		docs[a.Name] = a.Doc
	}
	docs["ignore"] = "malformed or unknown-analyzer //lint:ignore suppression directives"
	return diag.WriteSARIF(w, "tracelint", diags, docs)
}
