// Package mining implements the contrast-data-mining step of the
// causality analysis (§4.2.3): bounded-length meta-pattern enumeration
// over Aggregated Wait Graphs, the two contrast criteria, full-path
// contrast-pattern discovery, ranking by average cost, and the coverage
// metrics of the evaluation (ITC, TTC, top-n% ranking coverage).
package mining

import (
	"encoding/binary"
	"slices"
	"sort"
	"strconv"

	"tracescope/internal/awg"
	"tracescope/internal/sigset"
	"tracescope/internal/trace"
)

// Params configures pattern discovery.
type Params struct {
	// K bounds the length of enumerated path segments. The paper uses
	// 5 in all experiments. Zero means 5.
	K int
	// Tfast and Tslow are the scenario's contrast thresholds; their
	// ratio is the cost-contrast criterion of §4.2.3.
	Tfast trace.Duration
	Tslow trace.Duration
	// MaxSegments caps segment enumeration per graph as a safety valve
	// against pathological branching. Zero means 4,000,000.
	MaxSegments int
}

// ApplyDefaults fills zero fields with the paper's defaults.
func (p *Params) ApplyDefaults() {
	if p.K <= 0 {
		p.K = 5
	}
	if p.MaxSegments <= 0 {
		p.MaxSegments = 4_000_000
	}
}

// Meta is a meta-pattern: a Signature Set Tuple collected from path
// segments, with aggregated metrics (Definition 5).
type Meta struct {
	Tuple sigset.Tuple
	C     trace.Duration
	N     int64
	MaxC  trace.Duration
}

// AvgC is the meta-pattern's average cost per occurrence.
func (m *Meta) AvgC() float64 {
	if m.N == 0 {
		return 0
	}
	return float64(m.C) / float64(m.N)
}

// EnumerateMetas enumerates meta-patterns from all path segments of
// length 1..k in the graph, aggregating C and N over segments that share
// a tuple. It returns the tuple-keyed map and the number of segments
// enumerated (which saturates at maxSegments).
//
// Segments start at every node in visit order (Graph.Nodes: pre-order,
// siblings in Key order) and are walked on the finished forest's
// interned signature ids: the path's role sets are kept as sorted ids,
// and a segment is merged into its meta by id key without building a
// string. Strings are built once per distinct meta, when the result map
// is made.
func EnumerateMetas(g *awg.Graph, k, maxSegments int) (map[string]*Meta, int) {
	nodes, t := g.Nodes(), newTally()
	var path roleSets
	segments := 0
	// walk emits the segments of length <= k starting where the path
	// does; a segment's metric is its end node's metric (Definition 4).
	var walk func(i int32, depth int)
	walk = func(i int32, depth int) {
		if segments >= maxSegments {
			return
		}
		v := &nodes[i]
		path.push(v)
		segments++
		if !path.empty() {
			e, _ := t.find(&path)
			e.add(v)
		}
		if depth < k {
			for c := i + 1; c < v.End(); c = nodes[c].End() {
				walk(c, depth+1)
			}
		}
		path.pop(v)
	}
	for start := range nodes {
		if segments >= maxSegments {
			break
		}
		walk(int32(start), 1)
	}

	sigs := names(g.Sigs(), t.ids)
	slab := make([]Meta, len(t.ents))
	metas := make(map[string]*Meta, len(slab))
	for i := range t.ents {
		e := &t.ents[i]
		m := &slab[i]
		*m = Meta{Tuple: e.tuple(sigs), C: e.c, N: e.n, MaxC: e.maxC}
		metas[m.Tuple.Key()] = m
	}
	return metas, segments
}

// noSig marks a role a node does not fill (awg.Node.SigIDs); the empty
// signature is absent too, as sigset.New drops it.
const noSig = -1

// names maps ids to their signatures.
func names(sigs []string, ids []int32) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = sigs[id]
	}
	return out
}

// roleSets are the wait, unwait and run ids along a path, each sorted
// and kept with repeats, so that dropping a node on return leaves the
// sets of the path above it.
type roleSets [3][]int32

func (r *roleSets) push(v *awg.Node) {
	for i, id := range v.SigIDs() {
		r[i] = insertID(r[i], id)
	}
}

func (r *roleSets) pop(v *awg.Node) {
	for i, id := range v.SigIDs() {
		r[i] = removeID(r[i], id)
	}
}

func (r *roleSets) empty() bool {
	return len(r[0]) == 0 && len(r[1]) == 0 && len(r[2]) == 0
}

// insertID adds id to the sorted set s, keeping repeats.
func insertID(s []int32, id int32) []int32 {
	if id == noSig {
		return s
	}
	s = append(s, id)
	i := len(s) - 1
	for ; i > 0 && s[i-1] > id; i-- {
		s[i] = s[i-1]
	}
	s[i] = id
	return s
}

// removeID drops one occurrence of id from the sorted set s.
func removeID(s []int32, id int32) []int32 {
	if id == noSig {
		return s
	}
	for i, v := range s {
		if v == id {
			copy(s[i:], s[i+1:])
			return s[:len(s)-1]
		}
	}
	return s
}

// tally merges path tuples by their id key. The key is built in a reused
// buffer and looked up without conversion, so only a tuple not seen
// before allocates: its map key, and its distinct ids appended to ids.
type tally struct {
	byKey map[string]int32
	buf   []byte
	ids   []int32
	ents  []entry
}

// entry is one distinct tuple with its merged metrics. Its wait, unwait
// and run sets are ids[sets[r][0]:sets[r][1]], sorted and duplicate-free.
type entry struct {
	sets             [3][2]int32
	c, maxC, maxExec trace.Duration
	n                int64
	// keep marks a full-path tuple containing a contrast (DiscoverPatterns).
	keep bool
}

func newTally() *tally { return &tally{byKey: make(map[string]int32)} }

// find returns the entry of the path's tuple, adding it if it is new.
func (t *tally) find(r *roleSets) (e *entry, added bool) {
	t.buf = t.buf[:0]
	for _, s := range r {
		t.buf = appendSet(t.buf, s)
	}
	if i, ok := t.byKey[string(t.buf)]; ok {
		return &t.ents[i], false
	}
	t.byKey[string(t.buf)] = int32(len(t.ents))
	var fresh entry
	for i, s := range r {
		fresh.sets[i] = t.appendDistinct(s)
	}
	t.ents = append(t.ents, fresh)
	return &t.ents[len(t.ents)-1], true
}

// appendSet appends the distinct ids of a sorted set to a key, each as
// id+1, and closes the set with a 0.
func appendSet(buf []byte, s []int32) []byte {
	for i, id := range s {
		if i == 0 || s[i-1] != id {
			buf = binary.AppendUvarint(buf, uint64(id)+1)
		}
	}
	return append(buf, 0)
}

// appendDistinct appends the distinct ids of a sorted set to t.ids and
// returns their bounds.
func (t *tally) appendDistinct(s []int32) [2]int32 {
	lo := int32(len(t.ids))
	for i, id := range s {
		if i == 0 || s[i-1] != id {
			t.ids = append(t.ids, id)
		}
	}
	return [2]int32{lo, int32(len(t.ids))}
}

func (e *entry) add(v *awg.Node) {
	e.c += v.C
	e.n += v.N
	if v.MaxC > e.maxC {
		e.maxC = v.MaxC
	}
}

// tuple is the entry's tuple over sigs, the tally's ids as signatures.
// The sets share sigs's backing array, capped so an append copies.
func (e *entry) tuple(sigs []string) sigset.Tuple {
	var sets [3][]string
	for r, b := range e.sets {
		if b[0] < b[1] {
			sets[r] = sigs[b[0]:b[1]:b[1]]
		}
	}
	return sigset.Tuple{Wait: sets[0], Unwait: sets[1], Running: sets[2]}
}

// Contrast is a contrast meta-pattern with the criterion that selected it.
type Contrast struct {
	Meta *Meta
	// SlowOnly marks criterion 1: the pattern appears only in the slow
	// class. Otherwise criterion 2 selected it and Ratio holds the
	// slow/fast average-cost ratio.
	SlowOnly bool
	Ratio    float64
}

// DiscoverContrasts applies the two contrast criteria of §4.2.3 to the
// meta-pattern groups of the slow and fast classes.
func DiscoverContrasts(slow, fast map[string]*Meta, tfast, tslow trace.Duration) []Contrast {
	threshold := 0.0
	if tfast > 0 {
		threshold = float64(tslow) / float64(tfast)
	}
	type keyed struct {
		key string
		c   Contrast
	}
	var sel []keyed
	for key, ps := range slow {
		pf, common := fast[key]
		if !common {
			sel = append(sel, keyed{key, Contrast{Meta: ps, SlowOnly: true}})
			continue
		}
		fAvg := pf.AvgC()
		if fAvg <= 0 {
			continue
		}
		ratio := ps.AvgC() / fAvg
		if threshold > 0 && ratio > threshold {
			sel = append(sel, keyed{key, Contrast{Meta: ps, Ratio: ratio}})
		}
	}
	if len(sel) == 0 {
		return nil
	}
	// The map keys are the tuples' Keys: sort by them, once each.
	sort.SliceStable(sel, func(i, j int) bool { return sel[i].key < sel[j].key })
	out := make([]Contrast, len(sel))
	for i := range sel {
		out[i] = sel[i].c
	}
	return out
}

// Pattern is a discovered contrast pattern: the tuple of a full path in
// the slow class's Aggregated Wait Graph that contains at least one
// contrast meta-pattern, merged over identical tuples.
type Pattern struct {
	Tuple sigset.Tuple
	C     trace.Duration
	N     int64
	// MaxC is the largest single end-node cost merged into the pattern.
	MaxC trace.Duration
	// MaxExec is the largest single execution of the pattern: the
	// maximum root-node occurrence cost over its merged paths. The
	// automated high-impact rule of §5.2.1 tests this against Tslow
	// ("at least one of its executions in trace streams exceeds
	// Tslow").
	MaxExec trace.Duration
}

// AvgC is the pattern's impact: average execution cost (§4.2.3's ranking
// key, P.C/P.N).
func (p Pattern) AvgC() trace.Duration {
	if p.N == 0 {
		return 0
	}
	return p.C / trace.Duration(p.N)
}

// Describe renders the pattern the way §2.3 explains one to an analyst:
// the cost of the running signatures propagates through the unwait
// signatures to the wait signatures.
func (p Pattern) Describe() string { return string(p.AppendDescribe(nil)) }

// AppendDescribe appends Describe's text to buf, without fmt: the form a
// response that describes many patterns uses.
func (p Pattern) AppendDescribe(buf []byte) []byte {
	buf = append(buf, "the cost of "...)
	buf = appendList(buf, p.Tuple.Running, "the measured components")
	buf = append(buf, " is propagated through "...)
	buf = appendList(buf, p.Tuple.Unwait, "direct wake-ups")
	buf = append(buf, " to threads blocked in "...)
	buf = appendList(buf, p.Tuple.Wait, "the scenario")
	buf = append(buf, " (avg "...)
	buf = p.AvgC().Append(buf)
	buf = append(buf, " per occurrence, "...)
	buf = strconv.AppendInt(buf, p.N, 10)
	return append(buf, " occurrences)"...)
}

func appendList(buf []byte, items []string, empty string) []byte {
	if len(items) == 0 {
		return append(buf, empty...)
	}
	for i, s := range items {
		if i > 0 {
			buf = append(buf, ", "...)
		}
		buf = append(buf, s...)
	}
	return buf
}

// DiscoverPatterns computes a pattern for each full root-to-leaf path of
// the slow class's graph, keeps those containing any contrast
// meta-pattern, merges identical tuples, and ranks by average cost
// descending (ties broken by total cost, then key, for determinism).
//
// Paths are walked on the graph's signature ids, as in EnumerateMetas,
// and whether a path contains a contrast is decided once per distinct
// full-path tuple, on sorted ids.
func DiscoverPatterns(slowGraph *awg.Graph, contrasts []Contrast) []Pattern {
	nodes, sigs := slowGraph.Nodes(), slowGraph.Sigs()
	subs := contrastIDs(sigs, contrasts)
	t := newTally()
	var path roleSets
	var root int32
	var walk func(i int32)
	walk = func(i int32) {
		v := &nodes[i]
		path.push(v)
		if v.End() == i+1 {
			if !path.empty() {
				e, added := t.find(&path)
				if added {
					e.keep = containsAny(t.ids, e, subs)
				}
				e.add(v)
				if m := nodes[root].MaxC; m > e.maxExec {
					e.maxExec = m
				}
			}
		} else {
			for c := i + 1; c < v.End(); c = nodes[c].End() {
				walk(c)
			}
		}
		path.pop(v)
	}
	for r := int32(0); int(r) < len(nodes); r = nodes[r].End() {
		root = r
		walk(r)
	}

	type ranked struct {
		key string
		p   Pattern
	}
	byID := names(sigs, t.ids)
	var rs []ranked
	for i := range t.ents {
		if e := &t.ents[i]; e.keep {
			p := Pattern{Tuple: e.tuple(byID), C: e.c, N: e.n, MaxC: e.maxC, MaxExec: e.maxExec}
			rs = append(rs, ranked{p.Tuple.Key(), p})
		}
	}
	sort.Slice(rs, func(i, j int) bool {
		ai, aj := rs[i].p.AvgC(), rs[j].p.AvgC()
		if ai != aj {
			return ai > aj
		}
		if rs[i].p.C != rs[j].p.C {
			return rs[i].p.C > rs[j].p.C
		}
		return rs[i].key < rs[j].key
	})
	out := make([]Pattern, len(rs))
	for i := range rs {
		out[i] = rs[i].p
	}
	return out
}

// contrastIDs returns the contrasts' tuples as id sets over sigs, a
// graph's sorted signatures (wait, unwait, run in turn), dropping any
// with a signature the graph does not hold: no path of the graph can
// contain it.
func contrastIDs(sigs []string, contrasts []Contrast) [][3][]int32 {
	var out [][3][]int32
	var ids []int32
next:
	for i := range contrasts {
		t := contrasts[i].Meta.Tuple
		var sub [3][]int32
		for r, set := range [3][]string{t.Wait, t.Unwait, t.Running} {
			lo := len(ids)
			for _, s := range set {
				id, ok := slices.BinarySearch(sigs, s)
				if !ok {
					ids = ids[:lo]
					continue next
				}
				ids = append(ids, int32(id))
			}
			sub[r] = ids[lo:len(ids):len(ids)]
		}
		out = append(out, sub)
	}
	return out
}

// containsAny reports whether the entry's tuple contains any of subs,
// set-wise (sigset.Tuple.Contains on ids).
func containsAny(ids []int32, e *entry, subs [][3][]int32) bool {
next:
	for _, sub := range subs {
		for r, b := range e.sets {
			if !containsAll(ids[b[0]:b[1]], sub[r]) {
				continue next
			}
		}
		return true
	}
	return false
}

// containsAll reports whether sorted haystack contains every element of
// sorted needle.
func containsAll(haystack, needle []int32) bool {
	if len(needle) > len(haystack) {
		return false
	}
	i := 0
	for _, n := range needle {
		for i < len(haystack) && haystack[i] < n {
			i++
		}
		if i >= len(haystack) || haystack[i] != n {
			return false
		}
		i++
	}
	return true
}

// TotalPathCost sums the end-node cost of every full root-to-leaf path in
// the graph: the total driver time represented by the (reduced) graph,
// under the same accounting as pattern costs. Adding the graph's
// ReducedCost yields the coverage denominator of Table 2.
func TotalPathCost(g *awg.Graph) trace.Duration {
	var total trace.Duration
	for i, nodes := 0, g.Nodes(); i < len(nodes); i++ {
		if nodes[i].End() == int32(i+1) {
			total += nodes[i].C
		}
	}
	return total
}

// Coverage metrics (§5.2.1, Table 2): execution-time coverages of the
// discovered patterns over the total driver time of the slow class.

// ITC is the impactful-time coverage: the share of totalDriverCost
// covered by high-impact patterns — those with at least one execution
// exceeding Tslow.
func ITC(patterns []Pattern, tslow trace.Duration, totalDriverCost trace.Duration) float64 {
	if totalDriverCost <= 0 {
		return 0
	}
	var c trace.Duration
	for _, p := range patterns {
		if p.MaxExec > tslow {
			c += p.C
		}
	}
	return float64(c) / float64(totalDriverCost)
}

// TTC is the total-time coverage: the share of totalDriverCost covered by
// all discovered patterns.
func TTC(patterns []Pattern, totalDriverCost trace.Duration) float64 {
	if totalDriverCost <= 0 {
		return 0
	}
	var c trace.Duration
	for _, p := range patterns {
		c += p.C
	}
	return float64(c) / float64(totalDriverCost)
}

// TopCoverage returns the execution-time coverage of the top fraction
// (0..1] of the ranked patterns over all discovered patterns (Table 3).
func TopCoverage(patterns []Pattern, fraction float64) float64 {
	if len(patterns) == 0 || fraction <= 0 {
		return 0
	}
	var total trace.Duration
	for _, p := range patterns {
		total += p.C
	}
	if total == 0 {
		return 0
	}
	n := int(float64(len(patterns))*fraction + 0.5)
	if n < 1 {
		n = 1
	}
	if n > len(patterns) {
		n = len(patterns)
	}
	var c trace.Duration
	for _, p := range patterns[:n] {
		c += p.C
	}
	return float64(c) / float64(total)
}
