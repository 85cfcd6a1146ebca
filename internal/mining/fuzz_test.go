package mining

import (
	"fmt"
	"testing"

	"tracescope/internal/awg"
	"tracescope/internal/trace"
	"tracescope/internal/waitgraph"
)

// fuzzPool is the signature pool fuzzed forests draw from. Two of them
// carry the characters sigset.Tuple.Key separates members (',', as in
// a Go function with two type parameters) and sets (';') with, spelled
// so that an unescaped key would collide: wait{a,b} against wait{a},
// wait{b}, and wait{a;Ub} unwait{a} against wait{a} unwait{b;Ua}. Two
// more carry the '|' awg.Node.Key joins a wait and an unwait signature
// with, so that the pairs (a|b, e) and (a, b|e) have equal Keys.
var fuzzPool = []string{
	"a.sys!A",
	"b.sys!B",
	"a.sys!A,b.sys!B",
	"a.sys!A;Ub.sys!B",
	"b.sys!B;Ua.sys!A",
	"e.sys!Decrypt",
	"a.sys!A|b.sys!B",
	"b.sys!B|e.sys!Decrypt",
}

func (f *fixture) hw(cost trace.Duration) *waitgraph.Node {
	f.next++
	return &waitgraph.Node{Event: trace.EventID{Index: f.next}, Type: trace.HardwareService, Cost: cost}
}

// fuzzForests turns bytes into a slow and a fast class forest: up to
// eight roots, each a small wait/run/hardware tree over fuzzPool, the
// low bit of a root's first byte choosing its class.
func fuzzForests(data []byte) (slow, fast *awg.Graph) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	var build func(f *fixture, depth int) *waitgraph.Node
	build = func(f *fixture, depth int) *waitgraph.Node {
		op, cost := next(), trace.Duration(1+next()%40)*ms
		switch {
		case op%4 < 2 && depth < 5:
			wsig, usig := fuzzPool[next()%len(fuzzPool)], fuzzPool[next()%len(fuzzPool)]
			kids := make([]*waitgraph.Node, next()%4)
			for i := range kids {
				kids[i] = build(f, depth+1)
			}
			return f.wait(cost, wsig, usig, kids...)
		case op%4 == 3:
			return f.hw(cost)
		default:
			return f.run(cost, fuzzPool[next()%len(fuzzPool)])
		}
	}
	fs, ff := newFixture(), newFixture()
	var slowRoots, fastRoots []*waitgraph.Node
	for i := 0; i < 8 && len(data) > 0; i++ {
		if next()%2 == 0 {
			slowRoots = append(slowRoots, build(fs, 0))
		} else {
			fastRoots = append(fastRoots, build(ff, 0))
		}
	}
	return fs.agg(slowRoots...), ff.agg(fastRoots...)
}

// FuzzMiningMatchesReference: on any forest over a pool that includes
// the key's separator characters, the implementation and the string
// reference agree at every segment length and cap (checkAgainstReference).
func FuzzMiningMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 5, 0, 1, 3, 2, 9, 4, 2, 7, 1, 3, 30, 0, 1, 0, 2, 5, 2})
	f.Add([]byte{1, 1, 20, 2, 2, 2, 0, 0, 8, 3, 2, 1, 2, 4, 0, 3, 0, 2, 3, 0, 10, 2, 3, 1})
	f.Add([]byte("\x00\x00\x10\x02\x03\x03\x00\x00\x08\x02\x02\x02\x02\x04\x02\x03\x01\x00\x11\x01\x01\x02"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			return
		}
		slow, fast := fuzzForests(data)
		for _, k := range []int{1, 2, 3, 5, 8} {
			for _, maxSegments := range []int{1, 7, 300, 0} {
				p := Params{K: k, MaxSegments: maxSegments}
				p.ApplyDefaults()
				label := fmt.Sprintf("k=%d/max=%d", p.K, p.MaxSegments)
				checkAgainstReference(t, label, slow, fast, p.K, p.MaxSegments, 100*ms, 300*ms)
			}
		}
	})
}
