package lint

import (
	"go/token"
	"reflect"
	"testing"
)

// TestSortDiagnosticsTieBreaks pins the full comparison chain —
// file, then line, then column, then analyzer, then message — by
// feeding pairs that differ only in the key under test.
func TestSortDiagnosticsTieBreaks(t *testing.T) {
	d := func(file string, line, col int, analyzer, msg string) Diagnostic {
		return Diagnostic{
			Pos:      token.Position{Filename: file, Line: line, Column: col},
			Analyzer: analyzer,
			Message:  msg,
		}
	}
	in := []Diagnostic{
		d("b.go", 1, 1, "mapiter", "m"),
		d("a.go", 2, 1, "mapiter", "m"),
		d("a.go", 1, 2, "mapiter", "m"),
		d("a.go", 1, 1, "walltime", "m"),
		d("a.go", 1, 1, "mapiter", "z"),
		d("a.go", 1, 1, "mapiter", "a"),
	}
	want := []Diagnostic{
		d("a.go", 1, 1, "mapiter", "a"),
		d("a.go", 1, 1, "mapiter", "z"),
		d("a.go", 1, 1, "walltime", "m"),
		d("a.go", 1, 2, "mapiter", "m"),
		d("a.go", 2, 1, "mapiter", "m"),
		d("b.go", 1, 1, "mapiter", "m"),
	}
	SortDiagnostics(in)
	if !reflect.DeepEqual(in, want) {
		t.Errorf("tie-break order wrong:\n got %v\nwant %v", in, want)
	}
}

// TestSortDiagnosticsStable: fully identical diagnostics must keep
// their input order (the sort is stable), so repeated runs cannot
// shuffle equal findings.
func TestSortDiagnosticsStable(t *testing.T) {
	a := Diagnostic{Pos: token.Position{Filename: "a.go", Line: 1, Column: 1}, Analyzer: "x", Message: "same", Fixes: []Fix{{Start: 1}}}
	b := a
	b.Fixes = []Fix{{Start: 2}} // distinguishable payload, equal sort key
	in := []Diagnostic{a, b}
	SortDiagnostics(in)
	if in[0].Fixes[0].Start != 1 || in[1].Fixes[0].Start != 2 {
		t.Errorf("equal-key diagnostics were reordered: %v", in)
	}
}

// TestCoversEdgeCases pins suppressionSet.covers semantics: same line
// and line+1 only, same file only, listed analyzer or wildcard only.
func TestCoversEdgeCases(t *testing.T) {
	sup := suppression{
		file:      "a.go",
		line:      10,
		analyzers: map[string]bool{"mapiter": true, "errdrop": true},
	}
	wild := suppression{file: "a.go", line: 20, analyzers: map[string]bool{"*": true}}
	ss := suppressionSet{sup, wild}

	diag := func(file string, line int, analyzer string) Diagnostic {
		return Diagnostic{Pos: token.Position{Filename: file, Line: line}, Analyzer: analyzer}
	}
	cases := []struct {
		name string
		d    Diagnostic
		want bool
	}{
		{"same line, listed", diag("a.go", 10, "mapiter"), true},
		{"next line, other listed analyzer", diag("a.go", 11, "errdrop"), true},
		{"two lines below", diag("a.go", 12, "mapiter"), false},
		{"line above", diag("a.go", 9, "mapiter"), false},
		{"unlisted analyzer", diag("a.go", 10, "walltime"), false},
		{"other file", diag("b.go", 10, "mapiter"), false},
		{"wildcard same line", diag("a.go", 20, "anything"), true},
		{"wildcard next line", diag("a.go", 21, "spanend"), true},
		{"wildcard out of range", diag("a.go", 22, "spanend"), false},
	}
	for _, c := range cases {
		if got := ss.covers(c.d); got != c.want {
			t.Errorf("%s: covers = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestSuppressionMultiAnalyzerDirective checks the comma-list parse end
// to end: one directive silences exactly the named analyzers on the
// following line.
func TestSuppressionMultiAnalyzerDirective(t *testing.T) {
	src := `package p

func f(m map[string]int) []string {
	var out []string
	//lint:ignore mapiter,unstablesort keys are unique by construction
	for k := range m {
		out = append(out, k)
	}
	return out
}
`
	f := parse(t, "internal/p/p.go", src)
	sups, malformed := suppressions(f)
	if len(malformed) != 0 {
		t.Fatalf("well-formed directive reported malformed: %v", malformed)
	}
	if len(sups) != 1 {
		t.Fatalf("want 1 suppression, got %d", len(sups))
	}
	got := sups[0].analyzers
	if !got["mapiter"] || !got["unstablesort"] || len(got) != 2 {
		t.Errorf("analyzer list parsed wrong: %v", got)
	}
}

// TestSuppressionBlankReason: a directive with an analyzer list but no
// reason is malformed — the reason is the audit trail, not decoration.
func TestSuppressionBlankReason(t *testing.T) {
	for _, comment := range []string{
		"//lint:ignore mapiter",
		"//lint:ignore mapiter ",
		"//lint:ignore ",
		"//lint:ignore",
	} {
		src := "package p\n\nfunc f() {\n\t" + comment + "\n\t_ = 0\n}\n"
		f := parse(t, "p.go", src)
		sups, malformed := suppressions(f)
		if len(sups) != 0 {
			t.Errorf("%q: reason-less directive produced a live suppression", comment)
		}
		if len(malformed) != 1 || malformed[0].Analyzer != "ignore" {
			t.Errorf("%q: want one malformed-ignore finding, got %v", comment, malformed)
		}
	}
}

// TestSuppressionUnknownAnalyzer: a directive naming an analyzer that is
// not in All() is a finding — deleting or renaming an analyzer must not
// leave directives behind that silence nothing. Known names are judged
// against All(), not against the subset being run (the testdata harness
// runs one analyzer at a time); "*" stays legal.
func TestSuppressionUnknownAnalyzer(t *testing.T) {
	src := `package p

func f(m map[string]int) []string {
	var out []string
	//lint:ignore nosuch,mapiter the first name is not an analyzer
	for k := range m {
		out = append(out, k)
	}
	//lint:ignore unstablesort known, though not in the subset being run
	//lint:ignore * wildcard
	return out
}
`
	f := parse(t, "internal/p/p.go", src)
	diags := Run(f, []*Analyzer{MapIter})
	if len(diags) != 1 || diags[0].Analyzer != "ignore" || diags[0].Pos.Line != 5 ||
		diags[0].Message != `unknown analyzer "nosuch"` {
		t.Fatalf("want one ignore finding for nosuch on line 5, got %v", diags)
	}
}
