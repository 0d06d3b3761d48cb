package acache

import (
	"fmt"
	"math/rand"
	"testing"
)

// Tiered-storage differential tests: an engine spilling cold pages to
// mmap-backed slab files must be indistinguishable from the in-memory engine
// in everything the paper measures — emitted result deltas (in order),
// window contents, and simulated cost totals. Only the resident-footprint
// split (TierHotBytes/TierColdBytes) and the promotion counters may differ.

// driveLockstep streams the same pseudo-random workload into both engines —
// single appends and batched rounds — asserting per-call delta counts and,
// every few steps, exact simulated-work equality (charge identity).
func driveLockstep(t *testing.T, a, b *Engine, rng *rand.Rand, n int) {
	t.Helper()
	rel := func(r int64) (string, []int64) {
		switch r {
		case 0:
			return "R", []int64{rng.Int63n(60), 0, 0, 0}
		case 1:
			return "S", []int64{rng.Int63n(60), rng.Int63n(60), 0, 0}
		default:
			return "T", []int64{rng.Int63n(60), 0, 0, 0}
		}
	}
	for i := 0; i < n; i++ {
		if i%25 == 24 {
			// Batch round: several rows through AppendBatch's run path.
			name, _ := rel(rng.Int63n(3))
			rows := make([][]int64, 1+rng.Intn(6))
			for j := range rows {
				_, row := rel(int64(map[string]int{"R": 0, "S": 1, "T": 2}[name]))
				rows[j] = row
			}
			if da, db := a.AppendBatch(name, rows), b.AppendBatch(name, rows); da != db {
				t.Fatalf("step %d: batch deltas diverge: %d vs %d", i, da, db)
			}
		} else {
			name, row := rel(rng.Int63n(3))
			if da, db := a.Append(name, row...), b.Append(name, row...); da != db {
				t.Fatalf("step %d: deltas diverge: %d vs %d", i, da, db)
			}
		}
		if i%50 == 0 {
			if wa, wb := a.Stats().WorkSeconds, b.Stats().WorkSeconds; wa != wb {
				t.Fatalf("step %d: simulated work diverges: %v vs %v", i, wa, wb)
			}
		}
	}
}

// assertTieredIdentical runs the full differential between an in-memory
// control and a tiered engine at the given watermark.
func assertTieredIdentical(t *testing.T, hotBytes, steps int, seed int64, expectCold bool) {
	t.Helper()
	ctrl, err := durQuery().Build(Options{ReoptInterval: 100, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	tiered, err := durQuery().Build(Options{
		ReoptInterval: 100,
		Seed:          7,
		Tier:          TierOptions{Dir: t.TempDir(), HotBytes: hotBytes, PageBytes: 4096},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tiered.Close()

	var want, got resultLog
	want.attach(ctrl)
	got.attach(tiered)
	driveLockstep(t, ctrl, tiered, rand.New(rand.NewSource(seed)), steps)

	// Results must match row for row, in emission order: tiering moves
	// pages between tiers but never reorders a store's logical chain.
	if len(got.rows) != len(want.rows) {
		t.Fatalf("%d result rows, control has %d", len(got.rows), len(want.rows))
	}
	for i := range got.rows {
		if got.rows[i] != want.rows[i] {
			t.Fatalf("result row %d diverges: %s vs %s", i, got.rows[i], want.rows[i])
		}
	}
	for _, r := range []string{"R", "S", "T"} {
		if g, w := tiered.WindowLen(r), ctrl.WindowLen(r); g != w {
			t.Fatalf("window %s: %d tuples, control %d", r, g, w)
		}
	}
	sc, st := ctrl.Stats(), tiered.Stats()
	if sc.WorkSeconds != st.WorkSeconds || sc.Outputs != st.Outputs || sc.Updates != st.Updates {
		t.Fatalf("stats diverge: control %+v, tiered %+v", sc, st)
	}
	if sc.WindowBytes != st.WindowBytes || sc.CacheMemoryBytes != st.CacheMemoryBytes {
		t.Fatalf("logical footprint diverges: control %d/%d, tiered %d/%d",
			sc.WindowBytes, sc.CacheMemoryBytes, st.WindowBytes, st.CacheMemoryBytes)
	}
	if sc.TierHotBytes != 0 || sc.TierColdBytes != 0 {
		t.Fatalf("untired engine reports tier bytes: %+v", sc)
	}
	if expectCold {
		if st.TierColdBytes == 0 || st.TierDemotions == 0 {
			t.Fatalf("watermark %d produced no cold state: %+v", hotBytes, st)
		}
		if st.TierHotBytes >= st.WindowBytes+st.CacheMemoryBytes {
			t.Fatalf("constrained watermark left everything hot: %+v", st)
		}
	}
}

// TestTieredMatchesInMemoryAcrossWatermarks sweeps the hot watermark from
// heavily constrained (nearly everything cold) to effectively unlimited
// (nothing ever spills) and requires bit-identical behaviour at each point.
func TestTieredMatchesInMemoryAcrossWatermarks(t *testing.T) {
	for _, w := range []int{2048, 4096, 16384, 1 << 20} {
		t.Run(fmt.Sprintf("hot=%d", w), func(t *testing.T) {
			assertTieredIdentical(t, w, 900, 99, w <= 4096)
		})
	}
}

// FuzzTieredMatchesInMemory lets the fuzzer pick workload size, seed, and
// watermark; any divergence between the tiered and in-memory engines is a
// correctness bug.
func FuzzTieredMatchesInMemory(f *testing.F) {
	f.Add(int64(1), uint16(300), uint8(2))
	f.Add(int64(99), uint16(600), uint8(4))
	f.Add(int64(7), uint16(450), uint8(13))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, hotKB uint8) {
		steps := int(n)%700 + 100
		hot := (int(hotKB)%16 + 1) * 1024
		assertTieredIdentical(t, hot, steps, seed, false)
	})
}
