package core

import (
	"math"
	"testing"
	"time"

	"acache/internal/planner"
	"acache/internal/query"
	"acache/internal/stream"
	"acache/internal/synth"
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
// buffers are warm, every walk of the plan table the re-optimizer makes —
// selection, the used-cache monitor, memory allocation, the demand report
// and a full readiness scan — allocates nothing.
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
	a := en.ctl
	// Stop inside a profiling phase with a cache in use, so the monitor,
	// the allocator and the readiness scan all have members to walk.
	for i := 0; i < 20000 && !(a.profiling && len(en.UsedCaches()) > 0); i++ {
		en.Process(src.Next())
	}
	if r, _ := en.Reopts(); r == 0 || !a.profiling || len(en.UsedCaches()) == 0 {
		t.Fatalf("reopts %d, profiling %v, used caches %d: nothing is warm", r, a.profiling, len(en.UsedCaches()))
	}

	for _, w := range []struct {
		name string
		walk func()
	}{
		{"runSelection", func() { a.runSelection() }},
		{"monitorUsed", a.monitorUsed},
		{"allocateMemory", en.allocateMemory},
		{"MemoryDemandDetail", func() { en.MemoryDemandDetail() }},
		{"full statsReady scan", func() {
			a.readyEpochOK, a.readyCand = false, nil
			a.statsReady()
		}},
	} {
		w.walk() // warm the scratch at the current plan
		if allocs := testing.AllocsPerRun(50, w.walk); allocs > 0 {
			t.Errorf("warm %s allocates %.1f objects/run, want 0", w.name, allocs)
		}
	}
}

// drift7 is nway7_drift's stream in its first phase: a 7-way star on A,
// windows of 200, uniform keys over 400, relations 0–2 hot (four appends per
// block, each value repeated five times), the rest one append per block.
func drift7() *stream.Source {
	rels := make([]stream.RelStream, 7)
	for r := range rels {
		rate, mult := 1, 1
		if r < 3 {
			rate, mult = 4, 5
		}
		gen := synth.Repeat(synth.Uniform(0, 400, int64(r+1)), mult)
		rels[r] = stream.RelStream{Gen: synth.Tuples(gen), WindowSize: 200, Rate: float64(rate)}
	}
	return stream.NewSource(rels)
}

// BenchmarkReoptPhases attributes the re-optimizer's time on a 7-way star
// engine with the global-cache quota (15 candidates), warmed on drift7 for
// 200 000 updates. Each iteration opens a profiling phase, feeds one
// re-optimization interval of updates untimed (the phase is held open:
// maxProfiling is lifted, so the benchmark ends it), then times one
// monitorUsed, one full statsReady scan (memo cleared) and the finishReopt
// that closes the phase. It reports each as ns per call; ns/op is their sum.
func BenchmarkReoptPhases(b *testing.B) {
	q := starOnA(b, 7)
	en, err := NewEngine(q, nil, Config{MemoryBudget: -1, GCQuota: 6, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if len(en.cands) != 15 {
		b.Fatalf("%d candidates, want 15", len(en.cands))
	}
	src := drift7()
	for i := 0; i < 200_000; i++ {
		en.Process(src.Next())
	}
	a := en.ctl
	a.maxProfiling = math.MaxInt
	var monitor, scan, finish time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if !a.profiling {
			a.startReopt()
		}
		for j := 0; j < en.cfg.ReoptInterval; j++ {
			en.Process(src.Next())
		}
		a.readyEpochOK, a.readyCand = false, nil
		b.StartTimer()
		t0 := time.Now()
		a.monitorUsed()
		t1 := time.Now()
		a.statsReady()
		t2 := time.Now()
		a.finishReopt()
		t3 := time.Now()
		monitor += t1.Sub(t0)
		scan += t2.Sub(t1)
		finish += t3.Sub(t2)
	}
	n := float64(b.N)
	b.ReportMetric(float64(monitor.Nanoseconds())/n, "ns/monitorUsed")
	b.ReportMetric(float64(scan.Nanoseconds())/n, "ns/statsReady")
	b.ReportMetric(float64(finish.Nanoseconds())/n, "ns/finishReopt")
}
