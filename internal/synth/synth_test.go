package synth

import (
	"math"
	"testing"
)

func TestCounterMultiplicityAndWrap(t *testing.T) {
	g := Counter(10, 3, 2)
	want := []int64{10, 10, 11, 11, 12, 12, 10, 10}
	for i, w := range want {
		if v := g.Next(); v != w {
			t.Fatalf("value %d = %d, want %d", i, v, w)
		}
	}
}

func TestCounterUnbounded(t *testing.T) {
	g := Counter(0, 0, 1)
	for i := int64(0); i < 1000; i++ {
		if v := g.Next(); v != i {
			t.Fatalf("unbounded counter wrapped: %d at step %d", v, i)
		}
	}
}

func TestCounterMultClamp(t *testing.T) {
	g := Counter(0, 5, 0) // mult < 1 clamps to 1
	if g.Next() != 0 || g.Next() != 1 {
		t.Fatal("mult clamp failed")
	}
}

func TestUniformRangeAndDeterminism(t *testing.T) {
	a := Uniform(100, 50, 7)
	b := Uniform(100, 50, 7)
	seen := make(map[int64]bool)
	for i := 0; i < 5000; i++ {
		v := a.Next()
		if v != b.Next() {
			t.Fatal("same seed must give same sequence")
		}
		if v < 100 || v >= 150 {
			t.Fatalf("value %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) < 45 {
		t.Fatalf("only %d distinct values of 50", len(seen))
	}
}

func TestZipfSkew(t *testing.T) {
	g := Zipf(0, 1000, 1.5, 3)
	counts := make(map[int64]int)
	for i := 0; i < 20000; i++ {
		counts[g.Next()]++
	}
	if float64(counts[0])/20000 < 0.3 {
		t.Fatalf("zipf head share %.3f too small", float64(counts[0])/20000)
	}
}

func TestConstAndSeq(t *testing.T) {
	c := Counter(42, 1, 1) // a one-value domain never moves
	if c.Next() != 42 || c.Next() != 42 {
		t.Fatal("const broken")
	}
	s := Counter(5, 0, 1) // no domain: never wraps
	if s.Next() != 5 || s.Next() != 6 {
		t.Fatal("seq broken")
	}
}

func TestTuplesAssembly(t *testing.T) {
	g := Tuples(Counter(1, 1, 1), Counter(10, 0, 1))
	tp := g()
	if len(tp) != 2 || tp[0] != 1 || tp[1] != 10 {
		t.Fatalf("tuple = %v", tp)
	}
	tp = g()
	if tp[1] != 11 {
		t.Fatalf("second tuple = %v", tp)
	}
}

func TestDomainForSelectivity(t *testing.T) {
	if d := DomainForSelectivity(0.004); d != 250 {
		t.Fatalf("0.004 → %d, want 250", d)
	}
	if d := DomainForSelectivity(0); d != 0 {
		t.Fatalf("0 → %d, want 0 (disjoint)", d)
	}
	if d := DomainForSelectivity(2); d != 1 {
		t.Fatalf("2 → %d, want clamp 1", d)
	}
}

func TestFitDomains(t *testing.T) {
	sel := [][]float64{
		{0, 0.004, 0.005},
		{0.004, 0, 0.007},
		{0.005, 0.007, 0},
	}
	d := FitDomains(sel)
	if d[0] != 250 || d[1] != 250 || d[2] != 200 {
		t.Fatalf("FitDomains = %v", d)
	}
	zero := FitDomains([][]float64{{0, 0}, {0, 0}})
	if zero[0] != 0 || zero[1] != 0 {
		t.Fatalf("all-zero matrix → %v, want zeros", zero)
	}
}

func TestDisjointUniformNeverOverlaps(t *testing.T) {
	gens := DisjointUniform(3, 100, 9)
	ranges := make([][2]int64, 3)
	for i, g := range gens {
		lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
		for j := 0; j < 1000; j++ {
			v := g.Next()
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		ranges[i] = [2]int64{lo, hi}
	}
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			if ranges[i][0] <= ranges[j][1] && ranges[j][0] <= ranges[i][1] {
				t.Fatalf("ranges %v and %v overlap", ranges[i], ranges[j])
			}
		}
	}
}
