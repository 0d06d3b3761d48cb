package bloom

import (
	"fmt"
	"math"
	"testing"
)

// add drives AddHash, the one insertion the program performs, from a string
// key; its result is the only membership report the filter gives.
func add(f *Filter, key string) bool { return f.AddHash(HashBytes([]byte(key))) }

func TestNoFalseNegatives(t *testing.T) {
	f := New(1024, 3)
	for i := 0; i < 50; i++ {
		add(f, fmt.Sprintf("key-%d", i))
	}
	for i := 0; i < 50; i++ {
		if !add(f, fmt.Sprintf("key-%d", i)) {
			t.Fatalf("false negative for key-%d", i)
		}
	}
}

func TestAddReportsPresence(t *testing.T) {
	f := New(4096, 2)
	if add(f, "x") {
		t.Fatal("first Add must report absent")
	}
	if !add(f, "x") {
		t.Fatal("second Add must report present")
	}
}

func TestFalsePositiveRate(t *testing.T) {
	// 1000 keys in 8×1000 bits with k=2: theoretical FPR ≈ (1−e^(−k n/m))^k
	// ≈ 2.2%. Allow generous slack.
	f := New(8000, 2)
	for i := 0; i < 1000; i++ {
		add(f, fmt.Sprintf("in-%d", i))
	}
	// A presence report inserts, so the trials stay few against the 1000
	// keys already in: the filter ends at 1200 keys, FPR ≈ 3%.
	fp := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		if add(f, fmt.Sprintf("out-%d", i)) {
			fp++
		}
	}
	if rate := float64(fp) / trials; rate > 0.08 {
		t.Fatalf("false positive rate %.3f too high", rate)
	}
}

func TestEstimateDistinct(t *testing.T) {
	f := New(1<<14, 2)
	const n = 800
	for i := 0; i < n; i++ {
		add(f, fmt.Sprintf("k-%d", i))
		add(f, fmt.Sprintf("k-%d", i)) // duplicates must not inflate
	}
	est := f.EstimateDistinct()
	if math.Abs(est-n)/n > 0.15 {
		t.Fatalf("distinct estimate %.0f, want ≈ %d", est, n)
	}
}

func TestReset(t *testing.T) {
	f := New(256, 2)
	add(f, "a")
	if f.SetBits() == 0 {
		t.Fatal("no bits set after Add")
	}
	f.Reset()
	if f.SetBits() != 0 {
		t.Fatal("Reset left bits set")
	}
	if add(f, "a") {
		t.Fatal("Reset did not clear key")
	}
	// Seeds survive Reset: re-adding yields the same bit pattern.
	add(f, "a")
	before := f.SetBits()
	f.Reset()
	add(f, "a")
	if f.SetBits() != before {
		t.Fatal("hash seeds changed across Reset")
	}
}

func TestSaturation(t *testing.T) {
	f := New(8, 1)
	for i := 0; i < 100; i++ {
		add(f, fmt.Sprintf("k-%d", i))
	}
	if est := f.EstimateDistinct(); est != 8 {
		t.Fatalf("saturated estimate = %v, want bit count", est)
	}
}

func TestDegenerateSizes(t *testing.T) {
	f := New(0, 0) // clamps to 1 bit, 1 hash
	add(f, "x")
	if !add(f, "x") {
		t.Fatal("degenerate filter lost key")
	}
	if f.nbits != 1 || f.Hashes() != 1 {
		t.Fatalf("clamps wrong: bits=%d k=%d", f.nbits, f.Hashes())
	}
}

// TestMaskMatchesModulo pins the power-of-two fast path to the modulo
// semantics: a masked filter and a one-bit-larger (non-power-of-two,
// modulo-path) filter must agree with a brute-force reimplementation on
// every probe position, so switching New between the two paths can never
// move a bit — profiler estimates derived from set-bit counts are the
// engine's adaptive decisions.
func TestMaskMatchesModulo(t *testing.T) {
	for _, nbits := range []int{1 << 10, 1<<10 + 1, 400, 1 << 16} {
		f := New(nbits, 2)
		ref := make(map[uint64]bool)
		for i := 0; i < 5000; i++ {
			key := []byte{byte(i), byte(i >> 8), byte(i * 7)}
			h1, h2 := HashBytes(key)
			f.AddHash(h1, h2)
			for j := 0; j < 2; j++ {
				ref[(h1+uint64(j)*h2)%uint64(nbits)] = true
			}
		}
		if got, want := f.SetBits(), len(ref); got != want {
			t.Fatalf("nbits=%d: %d set bits, brute force %d", nbits, got, want)
		}
		for pos := range ref {
			if f.bits[pos/64]&(1<<(pos%64)) == 0 {
				t.Fatalf("nbits=%d: position %d not set", nbits, pos)
			}
		}
	}
}
