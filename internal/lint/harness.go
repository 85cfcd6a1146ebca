// harness is the testdata-driven expectation checker: fixture files
// under internal/lint/testdata carry `// want "regexp"` comments on the
// lines where analyzers must report, and the harness fails on both
// missing and unexpected findings. It is the same discipline
// golang.org/x/tools/go/analysis/analysistest enforces, rebuilt on the
// stdlib so the module stays dependency-free.
package lint

import (
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// TB is the subset of *testing.T the harness needs; taking the interface
// keeps the non-test package free of a testing import.
type TB interface {
	Helper()
	Errorf(format string, args ...interface{})
	Fatalf(format string, args ...interface{})
}

// RunTestdataPackage loads dir as one type-checked package (module
// imports resolved, type errors tolerated), runs the analyzers over it
// via RunPkg (suppressions applied, exactly like production), and
// checks the findings against the files' `// want "regexp"` comments:
//
//   - every want on line L must be matched by some finding on line L
//     (the regexp runs against "analyzer: message");
//   - every finding must be matched by some want on its line;
//   - several wants on one line each need a distinct matching finding.
func RunTestdataPackage(t TB, dir string, analyzers []*Analyzer) {
	t.Helper()
	pkg, err := NewLoader(dir).LoadDir(dir)
	if err != nil {
		t.Fatalf("lint harness: load %s: %v", dir, err)
	}
	wants := make(map[string][]expectation)
	for _, f := range pkg.AllFiles() {
		ws, err := parseWants(f)
		if err != nil {
			t.Fatalf("lint harness: %s: %v", f.Filename, err)
		}
		wants[f.Filename] = ws
	}
	for _, d := range RunPkg(pkg, analyzers) {
		full := fmt.Sprintf("%s: %s", d.Analyzer, d.Message)
		found := false
		ws := wants[d.Pos.Filename]
		for i := range ws {
			w := &ws[i]
			if w.matched || w.line != d.Pos.Line || !w.re.MatchString(full) {
				continue
			}
			w.matched = true
			found = true
			break
		}
		if !found {
			t.Errorf("%s:%d: unexpected finding: %s", d.Pos.Filename, d.Pos.Line, full)
		}
	}
	for _, f := range pkg.AllFiles() {
		for _, w := range wants[f.Filename] {
			if !w.matched {
				t.Errorf("%s:%d: expected finding matching %q, got none", f.Filename, w.line, w.pattern)
			}
		}
	}
}

// expectation is one parsed `// want` clause.
type expectation struct {
	line    int
	pattern string
	re      *regexp.Regexp
	matched bool
}

// wantPrefix introduces an expectation comment.
const wantPrefix = "// want "

// parseWants extracts the `// want "re" ["re" ...]` expectations of a
// fixture, ordered by line.
func parseWants(f *File) ([]expectation, error) {
	var wants []expectation
	for _, cg := range f.AST.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, wantPrefix)
			if !ok {
				continue
			}
			line := f.Position(c.Pos()).Line
			patterns, err := splitQuoted(rest)
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", line, err)
			}
			if len(patterns) == 0 {
				return nil, fmt.Errorf("line %d: // want with no pattern", line)
			}
			for _, p := range patterns {
				re, err := regexp.Compile(p)
				if err != nil {
					return nil, fmt.Errorf("line %d: bad want pattern %q: %v", line, p, err)
				}
				wants = append(wants, expectation{line: line, pattern: p, re: re})
			}
		}
	}
	sort.SliceStable(wants, func(i, j int) bool { return wants[i].line < wants[j].line })
	return wants, nil
}

// splitQuoted parses a sequence of Go-quoted strings separated by
// spaces: `"a" "b c"` -> ["a", "b c"].
func splitQuoted(s string) ([]string, error) {
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		if s[0] != '"' {
			return nil, fmt.Errorf("want patterns must be double-quoted, got %q", s)
		}
		end := -1
		for i := 1; i < len(s); i++ {
			if s[i] == '\\' {
				i++
				continue
			}
			if s[i] == '"' {
				end = i
				break
			}
		}
		if end < 0 {
			return nil, fmt.Errorf("unterminated want pattern in %q", s)
		}
		p, err := strconv.Unquote(s[:end+1])
		if err != nil {
			return nil, fmt.Errorf("bad want pattern %q: %v", s[:end+1], err)
		}
		out = append(out, p)
		s = strings.TrimSpace(s[end+1:])
	}
	return out, nil
}
