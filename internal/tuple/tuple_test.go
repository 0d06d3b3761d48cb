package tuple

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConcatAndClone(t *testing.T) {
	a := Tuple{1, 2}
	b := Tuple{3}
	c := a.Concat(b)
	if !c.Equal(Tuple{1, 2, 3}) {
		t.Fatalf("concat = %v", c)
	}
	// Concat must not alias its inputs.
	c[0] = 9
	if a[0] != 1 {
		t.Fatal("concat aliased input")
	}
	d := a.Clone()
	d[1] = 7
	if a[1] != 2 {
		t.Fatal("clone aliased input")
	}
}

func TestEqual(t *testing.T) {
	if !(Tuple{1, 2}).Equal(Tuple{1, 2}) {
		t.Fatal("equal tuples not equal")
	}
	if (Tuple{1, 2}).Equal(Tuple{1, 2, 3}) {
		t.Fatal("different lengths equal")
	}
	if (Tuple{1, 2}).Equal(Tuple{1, 3}) {
		t.Fatal("different values equal")
	}
	if !(Tuple{}).Equal(Tuple{}) {
		t.Fatal("empty tuples not equal")
	}
}

func TestString(t *testing.T) {
	if s := (Tuple{1, 1, 2, 2}).String(); s != "<1, 1, 2, 2>" {
		t.Fatalf("String = %q", s)
	}
}

func TestKeyRoundTrip(t *testing.T) {
	f := func(vals []int64) bool {
		k := KeyOfValues(vals)
		got := k.Values()
		if len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestKeyOfColumnOrderMatters(t *testing.T) {
	tup := Tuple{10, 20}
	if KeyOf(tup, []int{0, 1}) == KeyOf(tup, []int{1, 0}) {
		t.Fatal("key must depend on column order")
	}
}

func TestKeyOfMatchesKeyOfValues(t *testing.T) {
	tup := Tuple{5, -3, 12}
	if KeyOf(tup, []int{2, 0}) != KeyOfValues([]Value{12, 5}) {
		t.Fatal("KeyOf and KeyOfValues disagree")
	}
}

func TestEncodeDistinguishesTuples(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seen := make(map[Key]Tuple)
	for i := 0; i < 2000; i++ {
		n := 1 + rng.Intn(4)
		tup := make(Tuple, n)
		for j := range tup {
			tup[j] = rng.Int63n(50)
		}
		k := Encode(tup)
		if prev, ok := seen[k]; ok && !prev.Equal(tup) {
			t.Fatalf("encoding collision: %v and %v", prev, tup)
		}
		seen[k] = tup
	}
}

func TestNegativeValuesRoundTrip(t *testing.T) {
	vals := []Value{-1, -(1 << 62), 0}
	got := KeyOfValues(vals).Values()
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("negative round-trip: got %v want %v", got, vals)
		}
	}
}

func TestRefRoundTrip(t *testing.T) {
	var none Ref
	for width := 1; width <= 8; width++ {
		chunk := make([]Value, 3*width) // a tuple carved from the middle of a chunk
		tup := Tuple(chunk[width : 2*width : 2*width])
		for i := range tup {
			tup[i] = Value(100*width + i)
		}
		r := RefOf(tup)
		if r == none {
			t.Fatalf("width %d: a held tuple reads as the zero Ref", width)
		}
		got := r.Tuple(width)
		if !got.Equal(tup) || &got[0] != &tup[0] || len(got) != width || cap(got) != width {
			t.Fatalf("width %d: Ref gave back %v (len %d cap %d), want the storage of %v", width, got, len(got), cap(got), tup)
		}
		if RefOf(tup.Clone()) == r {
			t.Fatalf("width %d: a copy shares the original's Ref", width)
		}
		if RefOf(got) != r {
			t.Fatalf("width %d: Ref of the round-tripped tuple differs", width)
		}
	}
	if RefOf(nil) != none {
		t.Fatal("a nil tuple must read as the zero Ref")
	}
}
