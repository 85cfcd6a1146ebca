package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The v4 columnar codec lives in internal/trace/colfmt, a subpackage of
// the hot-path trace package. These tests pin that subpackages inherit
// the parent's analyzer scope — a dropped block-decode error or a
// wall-clock call in the codec is exactly the class of bug errdrop and
// walltime exist to catch.
func TestErrdropScopeCoversTraceSubpackages(t *testing.T) {
	for _, tc := range []struct {
		path string
		want bool
	}{
		{"internal/trace/codec_v4.go", true},
		{"internal/trace/colfmt/colfmt.go", true},
		{"internal/trace/colfmt/intern.go", true},
		{"internal/impact/impact.go", true},
		{"internal/engine/engine.go", true},
		{"internal/core/core.go", true},
		{"internal/ingest/server.go", true},
		{"internal/tracevet/corpus.go", true},
		{"internal/diag/diag.go", true},
		{"cmd/tracevet/main.go", true},
		{"internal/obs/obs.go", false},
		{"internal/scenario/generate.go", false},
		{"cmd/tracegen/main.go", false},
	} {
		if got := inErrdropScope(tc.path); got != tc.want {
			t.Errorf("inErrdropScope(%q) = %v, want %v", tc.path, got, tc.want)
		}
	}
}

func TestWalltimeScopeCoversTraceSubpackages(t *testing.T) {
	for _, tc := range []struct {
		path string
		want bool
	}{
		{"internal/trace/colfmt/colfmt.go", true},
		{"internal/trace/pool.go", true},
		{"internal/core/core.go", true},
		{"cmd/tracegen/main.go", false},
	} {
		if got := inInternal(tc.path); got != tc.want {
			t.Errorf("inInternal(%q) = %v, want %v", tc.path, got, tc.want)
		}
	}
}

// TestColfmtHasNoSuppressions pins the satellite promise that the
// columnar codec passes the analyzers without a single //lint:ignore:
// the package was written to the repo's error-handling and determinism
// contracts, not exempted from them.
func TestColfmtHasNoSuppressions(t *testing.T) {
	dir := filepath.Join("..", "trace", "colfmt")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		found++
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(data), "lint:ignore") {
			t.Errorf("%s carries a lint:ignore suppression; colfmt is contracted to pass clean", e.Name())
		}
	}
	if found == 0 {
		t.Fatal("no Go files found in internal/trace/colfmt")
	}
}
