package trace

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"
)

// randomStream builds a pseudo-random but valid stream from a seed.
func randomStream(seed int64) *Stream {
	r := rand.New(rand.NewSource(seed))
	s := NewStream("rnd")
	frames := []string{"fs.sys!Read", "fv.sys!Query", "kernel!Wait", "App!Main", "se.sys!Decrypt"}
	var stacks []StackID
	for i := 0; i < 6; i++ {
		depth := 1 + r.Intn(4)
		fs := make([]string, depth)
		for j := range fs {
			fs[j] = frames[r.Intn(len(frames))]
		}
		stacks = append(stacks, s.InternStackStrings(fs...))
	}
	var t Time
	for i := 0; i < 1+r.Intn(200); i++ {
		t += Time(r.Intn(5000))
		typ := EventType(r.Intn(int(numEventTypes)))
		e := Event{
			Type:  typ,
			Time:  t,
			Cost:  Duration(r.Intn(100000)),
			TID:   ThreadID(r.Intn(8)),
			WTID:  NoThread,
			Stack: stacks[r.Intn(len(stacks))],
		}
		if typ == Unwait {
			e.WTID = ThreadID(r.Intn(8))
			e.Cost = 0
		}
		s.AppendEvent(e)
	}
	s.SetThread(0, "Browser", "UI")
	s.SetThread(1, "AV", "W0")
	s.Instances = append(s.Instances, Instance{Scenario: "S1", TID: 0, Start: 0, End: t + 1})
	return s
}

func streamsEqual(a, b *Stream) bool {
	if a.ID != b.ID || len(a.Events) != len(b.Events) {
		return false
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			return false
		}
	}
	if !reflect.DeepEqual(a.Instances, b.Instances) {
		return false
	}
	if !reflect.DeepEqual(a.Threads, b.Threads) {
		return false
	}
	if a.NumFrames() != b.NumFrames() || a.NumStacks() != b.NumStacks() {
		return false
	}
	for i := 0; i < a.NumFrames(); i++ {
		if a.Frame(FrameID(i)) != b.Frame(FrameID(i)) {
			return false
		}
	}
	for i := 0; i < a.NumStacks(); i++ {
		if !reflect.DeepEqual(a.Stack(StackID(i)), b.Stack(StackID(i))) {
			return false
		}
	}
	return true
}

func TestBinaryRoundTrip(t *testing.T) {
	s := randomStream(1)
	var buf bytes.Buffer
	if err := s.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !streamsEqual(s, got) {
		t.Error("binary round trip lost data")
	}
}

// TestBinaryRoundTripProperty quick-checks the round trip over many
// random streams.
func TestBinaryRoundTripProperty(t *testing.T) {
	prop := func(seed int64) bool {
		s := randomStream(seed)
		var buf bytes.Buffer
		if err := s.WriteBinary(&buf); err != nil {
			return false
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		return streamsEqual(s, got)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestReadBinaryRejectsCorruption(t *testing.T) {
	s := randomStream(3)
	var buf bytes.Buffer
	if err := s.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad magic", append([]byte("XXXX"), good[4:]...)},
		{"truncated header", good[:3]},
		{"truncated middle", good[:len(good)/2]},
		{"truncated tail", good[:len(good)-3]},
	}
	for _, tc := range cases {
		if _, err := ReadBinary(bytes.NewReader(tc.data)); err == nil {
			t.Errorf("%s: decoded successfully", tc.name)
		}
	}
}

func TestReadBinaryRejectsHugeLengths(t *testing.T) {
	// magic + version + a string length claiming 2^40 bytes.
	data := []byte("TSCP\x01\x00")
	data = append(data, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20) // huge uvarint
	if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
		t.Error("huge length accepted")
	}
}

func TestCorpusDirRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "corpus")
	c := NewCorpus(randomStream(7), randomStream(8))
	if err := c.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumStreams() != 2 {
		t.Fatalf("got %d streams", got.NumStreams())
	}
	for i := range c.Streams {
		if !streamsEqual(c.Streams[i], got.Streams[i]) {
			t.Errorf("stream %d differs", i)
		}
	}
}

func TestReadDirMissing(t *testing.T) {
	if _, err := ReadDir(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Error("missing dir read successfully")
	}
}

func TestCorpusAccessors(t *testing.T) {
	a, b := randomStream(9), randomStream(10)
	c := NewCorpus(a, b)
	if c.NumInstances() != 2 {
		t.Errorf("NumInstances = %d", c.NumInstances())
	}
	if c.NumEvents() != len(a.Events)+len(b.Events) {
		t.Error("NumEvents wrong")
	}
	refs := c.InstancesOf("S1")
	if len(refs) != 2 {
		t.Fatalf("refs = %d", len(refs))
	}
	s, in := c.Instance(refs[1])
	if s != b || in.Scenario != "S1" {
		t.Error("Instance resolution wrong")
	}
	if len(c.InstancesOf("missing")) != 0 {
		t.Error("phantom instances")
	}
	scens := c.Scenarios()
	if len(scens) != 1 || scens[0].Name != "S1" || scens[0].Instances != 2 {
		t.Errorf("Scenarios = %v", scens)
	}
	if err := c.Validate(); err != nil {
		t.Error(err)
	}
}

// TestReadBinaryNeverPanicsOnCorruption flips random bytes in valid
// encodings: decoding must either fail cleanly or produce a stream that
// validates — never panic or hang.
func TestReadBinaryNeverPanicsOnCorruption(t *testing.T) {
	s := randomStream(11)
	var buf bytes.Buffer
	if err := s.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 300; i++ {
		data := make([]byte, len(good))
		copy(data, good)
		flips := 1 + r.Intn(4)
		for j := 0; j < flips; j++ {
			data[r.Intn(len(data))] ^= byte(1 + r.Intn(255))
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panic on corrupted input (iteration %d): %v", i, p)
				}
			}()
			got, err := ReadBinary(bytes.NewReader(data))
			if err == nil {
				if verr := got.Validate(); verr != nil {
					t.Fatalf("decoder returned invalid stream: %v", verr)
				}
			}
		}()
	}
}
