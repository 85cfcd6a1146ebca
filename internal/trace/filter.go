package trace

import "strings"

// ComponentFilter selects tracing events for chosen components (§3). A
// filter holds module-name patterns; a frame belongs to the filter when its
// module matches any pattern. Patterns support '*' wildcards ("*.sys"
// selects all device drivers) and are matched case-insensitively, matching
// how Windows module names behave.
type ComponentFilter struct {
	patterns []string
}

// NewComponentFilter builds a filter from module-name patterns. An empty
// pattern list yields a filter matching nothing.
func NewComponentFilter(patterns ...string) *ComponentFilter {
	lowered := make([]string, 0, len(patterns))
	for _, p := range patterns {
		p = strings.TrimSpace(strings.ToLower(p))
		if p != "" {
			lowered = append(lowered, p)
		}
	}
	return &ComponentFilter{patterns: lowered}
}

// AllDrivers is the filter the paper's evaluation uses: every module whose
// name matches "*.sys" (§5.1).
func AllDrivers() *ComponentFilter { return NewComponentFilter("*.sys") }

// Patterns returns a copy of the filter's patterns.
func (f *ComponentFilter) Patterns() []string {
	out := make([]string, len(f.patterns))
	copy(out, f.patterns)
	return out
}

// MatchModule reports whether a module name matches any pattern.
func (f *ComponentFilter) MatchModule(module string) bool {
	if f == nil {
		return false
	}
	module = strings.ToLower(module)
	for _, p := range f.patterns {
		if wildcardMatch(p, module) {
			return true
		}
	}
	return false
}

// MatchFrame reports whether a "module!function" frame belongs to the
// filtered components.
func (f *ComponentFilter) MatchFrame(frame string) bool {
	return f.MatchModule(Module(frame))
}

// TopSignature returns the topmost signature related to the chosen
// components on the callstack of the event: the first (innermost-first)
// frame whose module matches the filter (§4.1, Definition 2 preamble). The
// boolean reports whether such a frame exists.
func (f *ComponentFilter) TopSignature(s *Stream, stack StackID) (string, bool) {
	for _, fid := range s.Stack(stack) {
		frame := s.Frame(fid)
		if f.MatchFrame(frame) {
			return frame, true
		}
	}
	return "", false
}

// MatchStack reports whether any frame of the stack belongs to the
// filtered components.
func (f *ComponentFilter) MatchStack(s *Stream, stack StackID) bool {
	_, ok := f.TopSignature(s, stack)
	return ok
}

// wildcardMatch matches s against pattern p where '*' matches any (possibly
// empty) substring. Both inputs must already be lower-cased. It cuts the
// pattern at its stars as it goes: a filter is matched against every
// frame of every stack a fold resolves, and allocates nothing to do it.
func wildcardMatch(p, s string) bool {
	// Fast paths.
	if p == "*" {
		return true
	}
	first, rest, found := strings.Cut(p, "*")
	if !found {
		return p == s
	}
	// Anchor the first and last literal chunks.
	if !strings.HasPrefix(s, first) {
		return false
	}
	s = s[len(first):]
	mids, last := "", rest
	if i := strings.LastIndexByte(rest, '*'); i >= 0 {
		mids, last = rest[:i], rest[i+1:]
	}
	if !strings.HasSuffix(s, last) {
		return false
	}
	s = s[:len(s)-len(last)]
	for mids != "" {
		var mid string
		mid, mids, _ = strings.Cut(mids, "*")
		if mid == "" {
			continue
		}
		i := strings.Index(s, mid)
		if i < 0 {
			return false
		}
		s = s[i+len(mid):]
	}
	return true
}

// FilterCache is the per-stream resolver of one analysis fold: it
// answers a ComponentFilter's per-stack questions from a dense table
// indexed by StackID, and lends the walk in progress its visit marks,
// indexed by event number (BeginWalk). All of it is scoped to the
// *current* stream — the one most recently passed to BeginWalk,
// TopSignature or MatchStack. A different stream resets the table, and
// Forget drops the stream altogether, so a FilterCache never keeps alive
// any stream but the one being folded and none once that fold has ended
// (DESIGN.md §10). Every consumer of one fold — the impact walk, AWG
// aggregators — should share one FilterCache, so each stack is resolved
// once per stream rather than once per consumer. Not safe for concurrent
// use.
type FilterCache struct {
	f     *ComponentFilter
	cur   *Stream
	sigs  []stackSig // indexed by cur's StackIDs
	marks Marks
}

type stackSig struct {
	sig   string
	ok    bool
	known bool
}

// NewFilterCache wraps a filter with per-stream memoisation.
func NewFilterCache(f *ComponentFilter) *FilterCache {
	return &FilterCache{f: f, marks: Marks{epoch: firstEpoch}}
}

// Filter returns the underlying filter.
func (c *FilterCache) Filter() *ComponentFilter { return c.f }

// bind makes s the current stream, discarding the previous stream's
// resolved signatures.
func (c *FilterCache) bind(s *Stream) {
	c.Forget()
	c.cur = s
	if n := s.NumStacks(); n <= cap(c.sigs) {
		c.sigs = c.sigs[:n]
	} else {
		c.sigs = make([]stackSig, n)
	}
}

// Forget ends the fold of the current stream: the cache drops its
// reference to the stream and every signature resolved from it. A cache
// that outlives a stream's fold (core.Incremental's) must be told, or it
// keeps the last stream it folded alive.
func (c *FilterCache) Forget() {
	c.cur = nil
	clear(c.sigs) // the signatures are the stream's frame strings
	c.sigs = c.sigs[:0]
}

// BeginWalk makes s the current stream and returns an empty visit-mark
// set for one walk over a Wait Graph of s, indexed by EventID.Index. The
// set is owned by the cache and valid until the next BeginWalk.
func (c *FilterCache) BeginWalk(s *Stream) *Marks {
	if s != c.cur {
		c.bind(s)
	}
	c.marks.Begin(len(s.Events))
	return &c.marks
}

// TopSignature is ComponentFilter.TopSignature, resolved once per stack
// of the current stream. Stacks interned after the stream became current
// and absent stacks (NoStack) are resolved uncached.
func (c *FilterCache) TopSignature(s *Stream, stack StackID) (string, bool) {
	if s != c.cur {
		c.bind(s)
	}
	if uint(stack) >= uint(len(c.sigs)) {
		return c.f.TopSignature(s, stack)
	}
	e := &c.sigs[stack]
	if !e.known {
		e.sig, e.ok = c.f.TopSignature(s, stack)
		e.known = true
	}
	return e.sig, e.ok
}

// MatchStack is ComponentFilter.MatchStack through the same table.
func (c *FilterCache) MatchStack(s *Stream, stack StackID) bool {
	_, ok := c.TopSignature(s, stack)
	return ok
}
