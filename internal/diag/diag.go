// Package diag is the shared diagnostics layer behind tracescope's
// static verifiers: tracelint (Go-source determinism analysis) and
// tracevet (corpus/trace semantic verification). Both tools report the
// same shape — a rule name, a position, a message, a severity — in one
// sort order, render it as file:line:col lines, and share the 0/1/2
// exit-code convention (0 clean, 1 findings, 2 operational errors).
// tracevet also renders findings as JSON and as a SARIF 2.1.0 log.
package diag

import (
	"fmt"
	"go/token"
	"sort"
)

// Severity ranks a finding. The zero value renders as "warning" —
// tracelint predates severities and treats every finding as a warning,
// so the default preserves its output byte-for-byte. tracevet uses the
// full scale: Error for corruption and invariant violations, Warning
// for suspicious-but-analyzable states, Note for informational
// classifications (e.g. a recoverable append-crash tail).
type Severity string

const (
	// SevError marks corruption or a violated invariant: the artifact
	// must not be trusted by the analysis layer.
	SevError Severity = "error"
	// SevWarning marks a suspicious state the analysis layer tolerates.
	SevWarning Severity = "warning"
	// SevNote marks an informational finding.
	SevNote Severity = "note"
)

// Level returns the SARIF level string, mapping the zero value to
// "warning" (the historical tracelint behaviour).
func (s Severity) Level() string {
	if s == "" {
		return string(SevWarning)
	}
	return string(s)
}

// Diagnostic is one finding at one position. For source-code tools the
// position is a real token.Position; corpus verifiers reuse the same
// shape with Filename = the corpus artifact (corpus.index, a stream
// file) and Line = a 1-based record or event ordinal, so every
// downstream writer (human, JSON, SARIF) works unchanged.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Severity ranks the finding; the zero value means warning.
	Severity Severity
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Sort orders findings by file, line, column, analyzer, and message —
// the verifiers' own output must be deterministic. Severity is not a
// sort key: it is presentation, and excluding it keeps the order
// identical to the pre-severity tracelint contract.
func Sort(ds []Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// ExitCode maps a finished run onto the shared CLI convention: 2 when
// the run itself failed (parse/usage/IO), 1 when it completed with
// findings, 0 when clean.
func ExitCode(findings int, opFailed bool) int {
	switch {
	case opFailed:
		return 2
	case findings > 0:
		return 1
	}
	return 0
}
