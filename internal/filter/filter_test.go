package filter

import (
	"math/rand"
	"testing"
)

// lanes returns f's total lane count: New(2 × lanes) sizes a rebuild after an
// Insert overflow.
func lanes(f *Filter) int { return len(f.buckets) * lanesPerBucket }

func TestNoFalseNegatives(t *testing.T) {
	f := New(256)
	rng := rand.New(rand.NewSource(1))
	var hs []uint64
	for i := 0; i < 200; i++ {
		h := rng.Uint64()
		if !f.Insert(h) {
			t.Fatalf("insert %d overflowed below capacity", i)
		}
		hs = append(hs, h)
	}
	for i, h := range hs {
		if !f.MayContainHash(h) {
			t.Fatalf("false negative for inserted hash %d", i)
		}
	}
	if n := occupiedLanes(f); n != len(hs) {
		t.Fatalf("%d occupied lanes, want %d", n, len(hs))
	}
}

// occupiedLanes counts the fingerprints the table holds: one per successful
// Insert not yet deleted, or the cuckoo walk has lost or duplicated one.
func occupiedLanes(f *Filter) int {
	n := 0
	for _, w := range f.buckets {
		for lane := 0; lane < lanesPerBucket; lane++ {
			if uint16(w>>(uint(lane)*laneBits)) != 0 {
				n++
			}
		}
	}
	return n
}

func TestDeleteRemovesMembership(t *testing.T) {
	f := New(64)
	h1, h2 := uint64(0x1234567890abcdef), uint64(0xfedcba0987654321)
	f.Insert(h1)
	f.Insert(h2)
	if !f.Delete(h1) {
		t.Fatal("Delete of inserted hash reported absent")
	}
	if !f.MayContainHash(h2) {
		t.Fatal("Delete removed the wrong fingerprint")
	}
	if f.Delete(h1) && f.MayContainHash(h1) {
		t.Fatal("double delete left membership")
	}
}

func TestDuplicatesAreMultiset(t *testing.T) {
	f := New(64)
	h := uint64(42)
	f.Insert(h)
	f.Insert(h)
	f.Delete(h)
	if !f.MayContainHash(h) {
		t.Fatal("one delete of a doubly-inserted hash removed membership")
	}
	f.Delete(h)
	if f.MayContainHash(h) {
		t.Fatal("membership survived matching deletes")
	}
}

func TestDeterministicPlacement(t *testing.T) {
	mk := func() *Filter {
		f := New(512)
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 400; i++ {
			f.Insert(rng.Uint64())
		}
		return f
	}
	a, b := mk(), mk()
	if len(a.buckets) != len(b.buckets) {
		t.Fatal("sizes differ")
	}
	for i := range a.buckets {
		if a.buckets[i] != b.buckets[i] {
			t.Fatalf("bucket %d differs across identical runs", i)
		}
	}
}

func TestFalsePositiveRateIsSmall(t *testing.T) {
	f := New(4096)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 3000; i++ {
		f.Insert(rng.Uint64())
	}
	fps := 0
	const trials = 100_000
	for i := 0; i < trials; i++ {
		if f.MayContainHash(rng.Uint64()) {
			fps++
		}
	}
	// 8 candidate lanes × 2^-16 ≈ 0.012%; allow generous slack.
	if rate := float64(fps) / trials; rate > 0.005 {
		t.Fatalf("false-positive rate %.4f too high", rate)
	}
}

func TestOverflowSignalsRebuild(t *testing.T) {
	f := New(8) // 8 lanes of headroom over 2 buckets minimum
	rng := rand.New(rand.NewSource(9))
	inserted := []uint64{}
	overflowed := false
	for i := 0; i < 10_000; i++ {
		h := rng.Uint64()
		if !f.Insert(h) {
			overflowed = true
			// Rebuild larger from the retained hashes, as owners do.
			nf := New(lanes(f) * 2)
			for _, old := range inserted {
				if !nf.Insert(old) {
					t.Fatal("rebuild at double capacity overflowed")
				}
			}
			if !nf.Insert(h) {
				t.Fatal("rebuild could not take the triggering hash")
			}
			inserted = append(inserted, h)
			f = nf
			break
		}
		inserted = append(inserted, h)
	}
	if !overflowed {
		t.Skip("tiny filter never overflowed (unexpected but not wrong)")
	}
	for _, h := range inserted {
		if !f.MayContainHash(h) {
			t.Fatal("false negative after rebuild")
		}
	}
}

func TestProbeDoesNotAllocate(t *testing.T) {
	f := New(1024)
	rng := rand.New(rand.NewSource(5))
	hs := make([]uint64, 512)
	for i := range hs {
		hs[i] = rng.Uint64()
		f.Insert(hs[i])
	}
	var sink bool
	allocs := testing.AllocsPerRun(1000, func() {
		sink = f.MayContainHash(hs[17]) && !f.MayContainHash(0xdeadbeef)
	})
	_ = sink
	if allocs != 0 {
		t.Fatalf("MayContainHash allocated %.1f per probe", allocs)
	}
}

// FuzzFilterVsReference drives a randomized insert/delete/probe workload
// against a reference multiset: no false negatives ever, and the table
// holds exactly one fingerprint per live insert.
func FuzzFilterVsReference(f *testing.F) {
	f.Add(int64(1), uint8(16))
	f.Add(int64(42), uint8(64))
	f.Fuzz(func(t *testing.T, seed int64, nOps uint8) {
		rng := rand.New(rand.NewSource(seed))
		fl := New(64)
		ref := map[uint64]int{}
		var live []uint64
		total := 0
		for i := 0; i < int(nOps)*8; i++ {
			switch {
			case len(live) > 0 && rng.Intn(3) == 0:
				j := rng.Intn(len(live))
				h := live[j]
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
				if !fl.Delete(h) {
					t.Fatalf("delete of live hash %x failed", h)
				}
				ref[h]--
				total--
			default:
				h := rng.Uint64() % 512 // force fingerprint duplicates
				if !fl.Insert(h) {
					// Owner contract: rebuild from retained membership.
					nf := New(lanes(fl) * 2)
					for rh, n := range ref {
						for k := 0; k < n; k++ {
							if !nf.Insert(rh) {
								t.Skip("pathological duplicate overflow")
							}
						}
					}
					if !nf.Insert(h) {
						t.Skip("pathological duplicate overflow")
					}
					fl = nf
				}
				ref[h]++
				live = append(live, h)
				total++
			}
			if n := occupiedLanes(fl); n != total {
				t.Fatalf("count drift: filter holds %d, reference %d", n, total)
			}
		}
		for h, n := range ref {
			if n > 0 && !fl.MayContainHash(h) {
				t.Fatalf("false negative for resident hash %x", h)
			}
		}
	})
}
