package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWindowMeanAndEviction(t *testing.T) {
	w := NewWindow(3)
	if w.Mean() != 0 || w.Len() != 0 {
		t.Fatal("empty window wrong")
	}
	w.Observe(1)
	w.Observe(2)
	if w.Full() {
		t.Fatal("not full yet")
	}
	w.Observe(3)
	if !w.Full() || w.Mean() != 2 {
		t.Fatalf("mean = %v", w.Mean())
	}
	w.Observe(10) // evicts 1
	if w.Mean() != 5 {
		t.Fatalf("mean after eviction = %v", w.Mean())
	}
	if w.Sum() != 15 {
		t.Fatalf("sum = %v", w.Sum())
	}
}

func TestWindowRunningSumMatchesRecompute(t *testing.T) {
	f := func(vals []float64, cap8 uint8) bool {
		cap := int(cap8%16) + 1
		w := NewWindow(cap)
		var kept []float64
		for _, raw := range vals {
			// Constrain magnitudes: the running-sum design trades perfect
			// cancellation for O(1) updates, which is fine at the scales
			// the profiler feeds it but not at ±1e308.
			v := math.Mod(raw, 1e6)
			if math.IsNaN(v) {
				v = 0
			}
			w.Observe(v)
			kept = append(kept, v)
			if len(kept) > cap {
				kept = kept[1:]
			}
		}
		sum := 0.0
		for _, v := range kept {
			sum += v
		}
		return math.Abs(w.Sum()-sum) < 1e-6*(1+math.Abs(sum))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRecentMean(t *testing.T) {
	w := NewWindow(5)
	for _, v := range []float64{1, 2, 3, 4, 5} {
		w.Observe(v)
	}
	if m := w.RecentMean(2); m != 4.5 {
		t.Fatalf("RecentMean(2) = %v", m)
	}
	if m := w.RecentMean(10); m != 3 {
		t.Fatalf("RecentMean(10) = %v, want full mean", m)
	}
	w.Observe(6) // wraps: window now 2..6
	if m := w.RecentMean(3); math.Abs(m-5) > 1e-9 {
		t.Fatalf("RecentMean(3) after wrap = %v", m)
	}
	if NewWindow(3).RecentMean(2) != 0 {
		t.Fatal("empty RecentMean must be 0")
	}
}

func TestWindowReset(t *testing.T) {
	w := NewWindow(2)
	w.Observe(5)
	w.Reset()
	if w.Len() != 0 || w.Sum() != 0 || w.Mean() != 0 {
		t.Fatal("Reset incomplete")
	}
}

func TestWindowCapClamp(t *testing.T) {
	if len(NewWindow(0).buf) != 1 {
		t.Fatal("cap must clamp to 1")
	}
}

func TestRateEstimator(t *testing.T) {
	r := NewRateEstimator(3)
	if r.Rate() != 0 {
		t.Fatal("empty rate must be 0")
	}
	r.ObserveSpan(100, 2)
	r.ObserveSpan(50, 1)
	if math.Abs(r.Rate()-50) > 1e-9 {
		t.Fatalf("rate = %v", r.Rate())
	}
	if r.Ready() {
		t.Fatal("not ready with 2 of 3 spans")
	}
	r.ObserveSpan(150, 1)
	if !r.Ready() {
		t.Fatal("ready with full window")
	}
	// Window slides: the first span evicts.
	r.ObserveSpan(300, 2)
	want := (50.0 + 150 + 300) / (1 + 1 + 2)
	if math.Abs(r.Rate()-want) > 1e-9 {
		t.Fatalf("sliding rate = %v, want %v", r.Rate(), want)
	}
}

func TestWindowRandomizedAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	w := NewWindow(7)
	var naive []float64
	for i := 0; i < 500; i++ {
		v := rng.NormFloat64() * 100
		w.Observe(v)
		naive = append(naive, v)
		if len(naive) > 7 {
			naive = naive[1:]
		}
		mean := 0.0
		for _, x := range naive {
			mean += x
		}
		mean /= float64(len(naive))
		if math.Abs(w.Mean()-mean) > 1e-6 {
			t.Fatalf("step %d: mean %v vs naive %v", i, w.Mean(), mean)
		}
	}
}
