package core

import (
	"math"
	"sort"

	"tracescope/internal/mining"
	"tracescope/internal/trace"
)

// PatternDiff compares the discovered patterns of two causality analyses
// — typically before and after a fix, or two driver versions — and
// classifies them. The paper's workflow ends with developers changing
// lock granularity or memory behaviour; the diff is how an analyst
// verifies the change moved the patterns it was supposed to move.
type PatternDiff struct {
	// Introduced patterns appear only in `after`.
	Introduced []mining.Pattern
	// Resolved patterns appear only in `before`.
	Resolved []mining.Pattern
	// Regressed patterns exist in both with at least 25% higher average
	// cost after; Improved with at least 25% lower.
	Regressed []PatternChange
	Improved  []PatternChange
	// Stable patterns exist in both within the ±25% band.
	Stable []PatternChange
}

// PatternChange pairs the two observations of one pattern.
type PatternChange struct {
	Before mining.Pattern
	After  mining.Pattern
}

// Ratio is the after/before average-cost ratio. Zero-cost observations
// — a pattern recorded with no resolved cost on one side — are handled
// explicitly rather than dividing by zero: zero on both sides is stable
// (ratio 1), and a cost appearing where before there was none is an
// unbounded regression (+Inf).
func (c PatternChange) Ratio() float64 {
	b, a := c.Before.AvgC(), c.After.AvgC()
	if b == 0 {
		if a == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return float64(a) / float64(b)
}

// DiffPatterns classifies the pattern movement between two analyses.
// Patterns are matched by their canonical tuple key.
func DiffPatterns(before, after *CausalityResult) PatternDiff {
	const band = 0.25
	byKey := make(map[string]mining.Pattern, len(before.Patterns))
	for _, p := range before.Patterns {
		byKey[p.Tuple.Key()] = p
	}
	var d PatternDiff
	seen := make(map[string]bool)
	for _, pa := range after.Patterns {
		key := pa.Tuple.Key()
		pb, ok := byKey[key]
		if !ok {
			d.Introduced = append(d.Introduced, pa)
			continue
		}
		seen[key] = true
		ch := PatternChange{Before: pb, After: pa}
		switch r := ch.Ratio(); {
		case r > 1+band:
			d.Regressed = append(d.Regressed, ch)
		case r < 1-band:
			d.Improved = append(d.Improved, ch)
		default:
			d.Stable = append(d.Stable, ch)
		}
	}
	for _, pb := range before.Patterns {
		if !seen[pb.Tuple.Key()] {
			d.Resolved = append(d.Resolved, pb)
		}
	}
	sortPatterns(d.Introduced)
	sortPatterns(d.Resolved)
	sortChanges(d.Regressed, true)
	sortChanges(d.Improved, false)
	return d
}

func sortPatterns(ps []mining.Pattern) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].AvgC() != ps[j].AvgC() {
			return ps[i].AvgC() > ps[j].AvgC()
		}
		return ps[i].Tuple.Key() < ps[j].Tuple.Key()
	})
}

func sortChanges(cs []PatternChange, descending bool) {
	sort.Slice(cs, func(i, j int) bool {
		ri, rj := cs[i].Ratio(), cs[j].Ratio()
		if ri != rj {
			if descending {
				return ri > rj
			}
			return ri < rj
		}
		return cs[i].Before.Tuple.Key() < cs[j].Before.Tuple.Key()
	})
}

// TotalResolvedCost sums the before-cost of resolved patterns: the wait
// time the change eliminated from the slow class, in the duplicated
// accounting both analyses share.
func (d PatternDiff) TotalResolvedCost() trace.Duration {
	var c trace.Duration
	for _, p := range d.Resolved {
		c += p.C
	}
	return c
}
