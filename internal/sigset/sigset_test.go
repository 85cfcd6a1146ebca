package sigset

import (
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewCanonicalises(t *testing.T) {
	tu := New(
		[]string{"b", "a", "b", ""},
		[]string{"x"},
		nil,
	)
	if !reflect.DeepEqual(tu.Wait, []string{"a", "b"}) {
		t.Errorf("Wait = %v", tu.Wait)
	}
	if !reflect.DeepEqual(tu.Unwait, []string{"x"}) {
		t.Errorf("Unwait = %v", tu.Unwait)
	}
	if tu.Running != nil {
		t.Errorf("Running = %v", tu.Running)
	}
}

func TestIsEmpty(t *testing.T) {
	if !New(nil, nil, nil).IsEmpty() {
		t.Error("empty tuple not empty")
	}
	if New([]string{"a"}, nil, nil).IsEmpty() {
		t.Error("non-empty tuple empty")
	}
	if !New([]string{""}, nil, nil).IsEmpty() {
		t.Error("blank-only tuple should canonicalise to empty")
	}
}

func TestKeyDistinguishesSets(t *testing.T) {
	a := New([]string{"x"}, nil, nil)
	b := New(nil, []string{"x"}, nil)
	c := New(nil, nil, []string{"x"})
	keys := map[string]bool{a.Key(): true, b.Key(): true, c.Key(): true}
	if len(keys) != 3 {
		t.Errorf("keys collide: %v %v %v", a.Key(), b.Key(), c.Key())
	}
}

func TestKeyEqualForEqualTuples(t *testing.T) {
	a := New([]string{"b", "a"}, []string{"u"}, []string{"r"})
	b := New([]string{"a", "b", "a"}, []string{"u"}, []string{"r"})
	if a.Key() != b.Key() {
		t.Error("equal tuples have different keys")
	}
}

// TestKeyEscapesSeparators: a signature holding the key's separators
// (a ',' in a Go function name with two type parameters, a ';', a '\')
// keys apart from the tuples its pieces would form.
func TestKeyEscapesSeparators(t *testing.T) {
	groups := [][]Tuple{
		{New([]string{"a,b"}, nil, nil), New([]string{"a", "b"}, nil, nil)},
		{New([]string{"a;Ub"}, nil, []string{"r"}), New([]string{"a"}, []string{"b;U"}, []string{"r"})},
		{New([]string{`a\`, "b"}, nil, nil), New([]string{`a\,b`}, nil, nil), New([]string{`a\`, `\b`}, nil, nil)},
	}
	for _, g := range groups {
		seen := map[string]Tuple{}
		for _, tu := range g {
			if prev, dup := seen[tu.Key()]; dup {
				t.Errorf("%v and %v share the key %q", prev, tu, tu.Key())
			}
			seen[tu.Key()] = tu
		}
	}
	// Keys of signatures without separators are unchanged.
	plain := New([]string{"fv.sys!Query", "fs.sys!AcquireMDU"}, []string{"fs.sys!AcquireMDU"}, []string{HardwareSignature})
	if got, want := plain.Key(), "Wfs.sys!AcquireMDU,fv.sys!Query;Ufs.sys!AcquireMDU;RHardwareService;"; got != want {
		t.Errorf("Key() = %q, want %q", got, want)
	}
	if got, want := New([]string{"m.sys!F[int,string]"}, nil, nil).Key(), `Wm.sys!F[int\,string];U;R;`; got != want {
		t.Errorf("Key() = %q, want %q", got, want)
	}
}

func TestContains(t *testing.T) {
	full := New([]string{"a", "b", "c"}, []string{"u1", "u2"}, []string{"r"})
	cases := []struct {
		sub  Tuple
		want bool
	}{
		{New(nil, nil, nil), true},
		{New([]string{"a"}, nil, nil), true},
		{New([]string{"a", "c"}, []string{"u2"}, nil), true},
		{full, true},
		{New([]string{"z"}, nil, nil), false},
		{New(nil, []string{"a"}, nil), false}, // wrong set
		{New([]string{"a"}, nil, []string{"missing"}), false},
	}
	for i, c := range cases {
		if got := full.Contains(c.sub); got != c.want {
			t.Errorf("case %d: Contains(%v) = %v, want %v", i, c.sub, got, c.want)
		}
	}
}

func TestSignatures(t *testing.T) {
	tu := New([]string{"b"}, []string{"a"}, []string{"c", "a"})
	got := tu.Signatures()
	want := []string{"a", "b", "c"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Signatures = %v, want %v", got, want)
	}
}

func TestString(t *testing.T) {
	tu := New([]string{"w"}, []string{"u"}, []string{"r"})
	s := tu.String()
	for _, part := range []string{"wait{w}", "unwait{u}", "running{r}"} {
		if !strings.Contains(s, part) {
			t.Errorf("String() = %q missing %q", s, part)
		}
	}
}

// sanitize maps arbitrary quick-generated strings to a small alphabet so
// subsets actually collide.
func sanitize(in []string) []string {
	alphabet := []string{"a", "b", "c", "d", "e"}
	out := make([]string, 0, len(in))
	for _, s := range in {
		out = append(out, alphabet[len(s)%len(alphabet)])
	}
	return out
}

// TestCanonicalisationIdempotent: New over a tuple's own sets reproduces
// the tuple.
func TestCanonicalisationIdempotent(t *testing.T) {
	prop := func(w, u, r []string) bool {
		a := New(sanitize(w), sanitize(u), sanitize(r))
		b := New(a.Wait, a.Unwait, a.Running)
		return a.Key() == b.Key()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestContainsReflexive: every tuple contains itself.
func TestContainsReflexive(t *testing.T) {
	prop := func(w, u, r []string) bool {
		a := New(sanitize(w), sanitize(u), sanitize(r))
		return a.Contains(a)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestContainsMatchesNaive: the sorted-merge subset test agrees with a
// brute-force implementation.
func TestContainsMatchesNaive(t *testing.T) {
	naive := func(hay, needle []string) bool {
		set := map[string]bool{}
		for _, h := range hay {
			set[h] = true
		}
		for _, n := range needle {
			if !set[n] {
				return false
			}
		}
		return true
	}
	prop := func(hay, needle []string) bool {
		a := New(sanitize(hay), nil, nil)
		b := New(sanitize(needle), nil, nil)
		return a.Contains(b) == naive(a.Wait, b.Wait)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestSetsStaySorted: canonical sets are sorted, which Contains relies on.
func TestSetsStaySorted(t *testing.T) {
	prop := func(w []string) bool {
		a := New(sanitize(w), nil, nil)
		return sort.StringsAreSorted(a.Wait)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
