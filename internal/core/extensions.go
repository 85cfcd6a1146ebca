package core

import (
	"sort"

	"tracescope/internal/impact"
	"tracescope/internal/mining"
	"tracescope/internal/sigset"
	"tracescope/internal/trace"
	"tracescope/internal/waitgraph"
)

// graphsOver is the extensions' decode-use-drop walk: fn sees the Wait
// Graph of each ref, built from a stream that is fetched for the walk
// and dropped when its last ref is done (impact.GraphsOver). It reports
// whether every stream could be fetched; a failure is latched for Err
// and the caller answers nil instead of a result over part of refs.
func (a *Analyzer) graphsOver(refs []trace.InstanceRef, fn func(ref trace.InstanceRef, g *waitgraph.Graph, last bool)) bool {
	var built int64
	err := impact.GraphsOver(a.src, refs, func(ref trace.InstanceRef, g *waitgraph.Graph, last bool) {
		built++
		fn(ref, g, last)
	})
	a.mu.Lock()
	defer a.mu.Unlock()
	a.graphs += built
	if err != nil && a.err == nil {
		a.err = err
	}
	return err == nil
}

// PatternOccurrence is a concrete scenario instance exhibiting a pattern,
// for the analyst's drill-down into specific trace streams (§2.3: the
// pattern "guides the analyst to realize the concrete performance
// incident by investigating a specific trace stream").
type PatternOccurrence struct {
	Ref      trace.InstanceRef
	Instance trace.Instance
	// MatchedWait counts the pattern's wait signatures found in the
	// instance's Wait Graph.
	MatchedWait int
}

// LocatePattern finds slow-class instances of the result's scenario whose
// Wait Graphs exhibit the pattern: every wait signature of the pattern
// appears on some wait event reachable in the instance's graph, and every
// running signature on some running or hardware event. Occurrences are
// sorted slowest first and capped at limit (0 means 16). If a stream
// cannot be fetched the result is nil; see Err.
func (a *Analyzer) LocatePattern(res *CausalityResult, p mining.Pattern, filter *trace.ComponentFilter, limit int) []PatternOccurrence {
	if limit <= 0 {
		limit = 16
	}
	if filter == nil {
		filter = trace.AllDrivers()
	}
	// Classify on metadata first, so only streams with slow instances
	// are decoded.
	var slowRefs []trace.InstanceRef
	for _, ref := range a.src.InstancesOf(res.Scenario) {
		if a.src.InstanceMeta(ref).Duration() > res.Tslow {
			slowRefs = append(slowRefs, ref)
		}
	}
	var out []PatternOccurrence
	ok := a.graphsOver(slowRefs, func(ref trace.InstanceRef, g *waitgraph.Graph, _ bool) {
		if matched, waits := graphExhibits(g, p.Tuple, filter); matched {
			out = append(out, PatternOccurrence{
				Ref: ref, Instance: a.src.InstanceMeta(ref), MatchedWait: waits,
			})
		}
	})
	if !ok {
		return nil
	}
	// Equal durations are real (quantised simulated time), so a plain
	// duration sort would order tied occurrences run-dependently; the
	// instance reference is the total-order tie-break.
	sort.Slice(out, func(i, j int) bool {
		di, dj := out[i].Instance.Duration(), out[j].Instance.Duration()
		if di != dj {
			return di > dj
		}
		if out[i].Ref.Stream != out[j].Ref.Stream {
			return out[i].Ref.Stream < out[j].Ref.Stream
		}
		return out[i].Ref.Instance < out[j].Ref.Instance
	})
	if len(out) > limit {
		out = out[:limit]
	}
	return out
}

// graphExhibits checks whether an instance's Wait Graph contains the
// tuple's wait signatures on wait events and running signatures on
// running/hardware events.
func graphExhibits(g *waitgraph.Graph, t sigset.Tuple, filter *trace.ComponentFilter) (bool, int) {
	needWait := make(map[string]bool, len(t.Wait))
	for _, s := range t.Wait {
		needWait[s] = false
	}
	needRun := make(map[string]bool, len(t.Running))
	for _, s := range t.Running {
		needRun[s] = false
	}
	g.Walk(func(n *waitgraph.Node, depth int) bool {
		switch n.Type {
		case trace.Wait:
			if sig, ok := filter.TopSignature(g.Stream, n.Stack); ok {
				if _, want := needWait[sig]; want {
					needWait[sig] = true
				}
			}
		case trace.Running:
			if sig, ok := filter.TopSignature(g.Stream, n.Stack); ok {
				if _, want := needRun[sig]; want {
					needRun[sig] = true
				}
			}
		case trace.HardwareService:
			if _, want := needRun[sigset.HardwareSignature]; want {
				needRun[sigset.HardwareSignature] = true
			}
		}
		return true
	})
	matchedWaits := 0
	for _, seen := range needWait {
		if !seen {
			return false, 0
		}
		matchedWaits++
	}
	for _, seen := range needRun {
		if !seen {
			return false, 0
		}
	}
	return true, matchedWaits
}

// ComponentImpact is one module's contribution in a per-component impact
// breakdown — the "different scopes" of §2.3's workflow.
type ComponentImpact struct {
	Module string
	Dwait  trace.Duration
	Drun   trace.Duration
}

// ImpactByComponent measures Dwait and Drun per driver module over the
// given instances (nil means all), using top-level wait counting per
// module. It answers "which driver?" before causality analysis answers
// "which behaviour?". If a stream cannot be fetched the result is nil;
// see Err.
func (a *Analyzer) ImpactByComponent(filter *trace.ComponentFilter, refs []trace.InstanceRef) []ComponentImpact {
	if filter == nil {
		filter = trace.AllDrivers()
	}
	if refs == nil {
		refs = a.src.InstancesOf("")
	}
	byModule := make(map[string]*ComponentImpact)
	get := func(module string) *ComponentImpact {
		ci, ok := byModule[module]
		if !ok {
			ci = &ComponentImpact{Module: module}
			byModule[module] = ci
		}
		return ci
	}
	fc := trace.NewFilterCache(filter)
	ok := a.graphsOver(refs, func(ref trace.InstanceRef, g *waitgraph.Graph, last bool) {
		seen := fc.BeginWalk(g.Stream)
		var walk func(n *waitgraph.Node, covered bool)
		walk = func(n *waitgraph.Node, covered bool) {
			if !seen.Visit(n.Event.Index) {
				return
			}
			switch n.Type {
			case trace.Running:
				if sig, ok := fc.TopSignature(g.Stream, n.Stack); ok {
					get(trace.Module(sig)).Drun += n.Cost
				}
			case trace.Wait:
				sig, isDriver := fc.TopSignature(g.Stream, n.Stack)
				if isDriver && !covered {
					get(trace.Module(sig)).Dwait += n.Cost
					covered = true
				}
				for _, c := range n.Children {
					walk(c, covered)
				}
			}
		}
		for _, r := range g.Roots {
			walk(r, false)
		}
		if last {
			fc.Forget()
		}
	})
	if !ok {
		return nil
	}
	out := make([]ComponentImpact, 0, len(byModule))
	for _, ci := range byModule {
		out = append(out, *ci)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dwait != out[j].Dwait {
			return out[i].Dwait > out[j].Dwait
		}
		return out[i].Module < out[j].Module
	})
	return out
}
