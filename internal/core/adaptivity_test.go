package core

import (
	"testing"

	"acache/internal/planner"
	"acache/internal/query"
)

// driveBoth feeds the identical update sequence to two engines and fails on
// the first per-update output divergence.
func driveBoth(t *testing.T, q *query.Query, a, b *Engine, n int, window int, domain, seed int64) {
	t.Helper()
	srcA := windowSource(q, window, domain, seed)
	srcB := windowSource(q, window, domain, seed)
	for i := 0; i < n; i++ {
		u := srcA.Next()
		if got, want := b.Process(srcB.Next()), a.Process(u); got != want {
			t.Fatalf("update %d %v: %d outputs vs reference %d", i, u, got, want)
		}
	}
}

// TestReferenceAdaptivityDifferential: the adaptivity fast paths — the
// statistics-epoch readiness gate, the reused selection workspace, and one
// shadow estimator per probe stream —
// must be invisible: every output, every simulated-cost figure, every
// re-optimization decision, and every cache state is byte-identical to the
// reference implementation that recomputes everything from scratch and
// runs one shadow per candidate.
func TestReferenceAdaptivityDifferential(t *testing.T) {
	cases := []struct {
		name string
		mk   func(t *testing.T) *query.Query
		ord  planner.Ordering
		cfg  Config
		n    int
		// shares marks workloads with several candidates on one probe
		// stream, where the fast side must actually share a shadow.
		shares bool
	}{
		{
			name: "threeWay",
			mk:   threeWay,
			ord:  planner.Ordering{{1, 2}, {2, 0}, {1, 0}},
			cfg:  Config{ReoptInterval: 300, Seed: 41},
			n:    8000,
		},
		{
			name:   "fourWayGC",
			mk:     fourWayClique,
			ord:    planner.Ordering{{1, 2, 3}, {0, 2, 3}, {0, 1, 3}, {1, 2, 0}},
			cfg:    Config{ReoptInterval: 400, GCQuota: 6, Seed: 43},
			n:      8000,
			shares: true,
		},
		{
			name: "threeWayBudget",
			mk:   threeWay,
			ord:  planner.Ordering{{1, 2}, {2, 0}, {1, 0}},
			cfg:  Config{ReoptInterval: 300, MemoryBudget: 4 * 1024, GCQuota: 6, Seed: 47},
			n:    8000,
		},
		{
			// Default ordering, as a built engine starts with.
			name:   "fiveWayStar",
			mk:     func(t *testing.T) *query.Query { return starOnA(t, 5) },
			cfg:    Config{ReoptInterval: 400, GCQuota: 6, Seed: 53},
			n:      8000,
			shares: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := tc.mk(t)
			refCfg := tc.cfg
			refCfg.ReferenceAdaptivity = true
			ref, err := NewEngine(q, tc.ord, refCfg)
			if err != nil {
				t.Fatalf("NewEngine(reference): %v", err)
			}
			fast, err := NewEngine(q, tc.ord, tc.cfg)
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			driveBoth(t, q, ref, fast, tc.n, 40, 10, tc.cfg.Seed+1)

			a, b := ref.Snapshot(), fast.Snapshot()
			a.ReoptNanos, b.ReoptNanos = 0, 0 // wall clock, not logical work
			if a != b {
				t.Errorf("snapshot mismatch:\nreference %+v\nfast      %+v", a, b)
			}
			if a.Reopts == 0 {
				t.Error("workload never re-optimized; differential vacuous")
			}
			if as, bs := cacheStates(ref), cacheStates(fast); as != bs {
				t.Errorf("cache states mismatch:\nreference %s\nfast      %s", as, bs)
			}
			// A shared shadow bumps the stats epoch once per completed window
			// where one shadow per sharer bumps it once each; every other bump
			// is common to both sides. A lower fast-side epoch therefore means
			// a shared shadow really ran, so the comparison above is not
			// vacuous for sharing.
			if re, fe := ref.ctl.pf.StatsEpoch(), fast.ctl.pf.StatsEpoch(); tc.shares && fe >= re {
				t.Errorf("no shadow was shared: stats epoch %d fast vs %d reference", fe, re)
			}
		})
	}
}

// TestWarmReoptAllocFree pins the allocation budget: once the engine's
// buffers are warm, re-running selection allocates nothing.
func TestWarmReoptAllocFree(t *testing.T) {
	q := threeWay(t)
	en, err := NewEngine(q, planner.Ordering{{1, 2}, {2, 0}, {1, 0}}, Config{ReoptInterval: 300, GCQuota: 6, Seed: 81})
	if err != nil {
		t.Fatal(err)
	}
	src := windowSource(q, 40, 10, 82)
	for i := 0; i < 9000; i++ {
		en.Process(src.Next())
	}
	if r, _ := en.Reopts(); r == 0 {
		t.Fatal("engine never re-optimized; nothing is warm")
	}

	en.ctl.runSelection() // warm the workspace at the current candidate shape
	if allocs := testing.AllocsPerRun(50, func() { en.ctl.runSelection() }); allocs > 0 {
		t.Errorf("warm runSelection allocates %.1f objects/run, want 0", allocs)
	}
}
