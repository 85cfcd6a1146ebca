package trace

import (
	"math/rand"
	"testing"
)

// bigStream builds a ~n-event stream with realistic stack/thread variety
// for decode benchmarking.
func bigStream(seed int64, n int) *Stream {
	r := rand.New(rand.NewSource(seed))
	s := NewStream("big")
	frames := []string{"fs.sys!Read", "fv.sys!Query", "kernel!Wait", "App!Main", "se.sys!Decrypt", "net.sys!Recv", "av.sys!Scan"}
	var stacks []StackID
	for i := 0; i < 40; i++ {
		depth := 1 + r.Intn(6)
		fs := make([]string, depth)
		for j := range fs {
			fs[j] = frames[r.Intn(len(frames))]
		}
		stacks = append(stacks, s.InternStackStrings(fs...))
	}
	var t Time
	for i := 0; i < n; i++ {
		t += Time(r.Intn(500))
		typ := EventType(r.Intn(int(numEventTypes)))
		e := Event{
			Type: typ, Time: t, Cost: Duration(r.Intn(100000)),
			TID: ThreadID(r.Intn(16)), WTID: NoThread,
			Stack: stacks[r.Intn(len(stacks))],
		}
		if typ == Unwait {
			e.WTID = ThreadID(r.Intn(16))
			e.Cost = 0
		}
		s.AppendEvent(e)
	}
	s.SetThread(0, "Browser", "UI")
	s.Instances = append(s.Instances, Instance{Scenario: "S1", TID: 0, Start: 0, End: t + 1})
	return s
}

func benchDir(b *testing.B) string {
	b.Helper()
	c := &Corpus{}
	for i := 0; i < 8; i++ {
		c.Streams = append(c.Streams, bigStream(int64(i), 10000))
	}
	dir := b.TempDir()
	if err := c.WriteDir(dir); err != nil {
		b.Fatal(err)
	}
	return dir
}

// benchSweep decodes the corpus stream by stream: into memory each
// stream owns (Stream), or through one Scratch (StreamInto).
func benchSweep(b *testing.B, dir string, reuse bool) {
	src, err := OpenDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	var sc Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < src.NumStreams(); j++ {
			if reuse {
				_, err = src.StreamInto(j, &sc)
			} else {
				_, err = src.Stream(j)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkDecodeSweepV4(b *testing.B)        { benchSweep(b, benchDir(b), false) }
func BenchmarkDecodeSweepV4Scratch(b *testing.B) { benchSweep(b, benchDir(b), true) }
