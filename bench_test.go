package acache

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"acache/internal/bench"
	"acache/internal/cache"
	"acache/internal/cost"
	"acache/internal/tuple"
)

// Figure/table benchmarks: each regenerates one of the paper's experiments
// at a reduced scale per iteration and reports headline shape metrics. Run
// `go run ./cmd/acache-bench -scale full` for the paper-scale tables; these
// testing.B entry points exist so `go test -bench` regenerates every figure
// and so CI catches shape regressions.

// reportEdges reports the first and last Y of the experiment's first two
// series (caching and MJoin, or the plan families), which carry the
// crossover shapes the paper's figures show.
func reportEdges(b *testing.B, e *bench.Experiment) {
	b.Helper()
	for _, s := range e.Series {
		if len(s.Y) == 0 {
			b.Fatalf("series %q empty", s.Label)
		}
		unit := strings.Map(func(r rune) rune {
			if r == ' ' || r == '(' || r == ')' || r == '/' {
				return '_'
			}
			return r
		}, s.Label)
		b.ReportMetric(s.Y[0], unit+"_first")
		b.ReportMetric(s.Y[len(s.Y)-1], unit+"_last")
	}
}

func benchScale() bench.RunConfig {
	return bench.RunConfig{Warmup: 2_000, Measure: 5_000, Seed: 42}
}

func BenchmarkFig6HitProbability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportEdges(b, bench.Fig6(benchScale()))
	}
}

func BenchmarkFig7JoinSelectivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportEdges(b, bench.Fig7(benchScale()))
	}
}

func BenchmarkFig8UpdateProbeRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportEdges(b, bench.Fig8(benchScale()))
	}
}

func BenchmarkFig9NWayJoin(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportEdges(b, bench.Fig9(benchScale()))
	}
}

func BenchmarkFig10JoinCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportEdges(b, bench.Fig10(benchScale()))
	}
}

func BenchmarkFig11PlanSpectrum(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportEdges(b, bench.Fig11(benchScale()))
	}
}

func BenchmarkFig12Adaptivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportEdges(b, bench.Fig12(benchScale()))
	}
}

func BenchmarkFig13Memory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportEdges(b, bench.Fig13(benchScale()))
	}
}

// Micro-benchmarks: real wall-clock cost of the hot paths.

func BenchmarkEngineInsertThreeWay(b *testing.B) {
	eng, err := NewQuery().
		WindowedRelation("R", 100, "A").
		WindowedRelation("S", 100, "A", "B").
		WindowedRelation("T", 100, "B").
		Join("R.A", "S.A").
		Join("S.B", "T.B").
		Build(Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		switch i % 3 {
		case 0:
			eng.Append("R", rng.Int63n(100))
		case 1:
			eng.Append("S", rng.Int63n(100), rng.Int63n(100))
		default:
			eng.Append("T", rng.Int63n(100))
		}
	}
}

// BenchmarkEngineAdaptiveHotpath measures the warm caching-enabled hot path:
// windows full, the adaptive engine settled on a cache set, profiler and
// re-optimizer live. This is the configuration the off-hot-path adaptivity
// work (sampled profiling, epoch-gated readiness, allocation-free
// re-optimization) targets, so CI guards it against the merge base alongside
// the raw insert path.
func BenchmarkEngineAdaptiveHotpath(b *testing.B) {
	eng, err := NewQuery().
		WindowedRelation("R", 100, "A").
		WindowedRelation("S", 100, "A", "B").
		WindowedRelation("T", 100, "B").
		Join("R.A", "S.A").
		Join("S.B", "T.B").
		Build(Options{ReoptInterval: 2000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	step := func() {
		switch i := rng.Intn(3); i {
		case 0:
			eng.Append("R", rng.Int63n(100))
		case 1:
			eng.Append("S", rng.Int63n(100), rng.Int63n(100))
		default:
			eng.Append("T", rng.Int63n(100))
		}
	}
	for i := 0; i < 20000; i++ {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// TestEngineInsertAllocBudget pins the steady-state allocation count of a
// warm three-way Append, API call to result callback, at zero: with a result
// callback registered (the rows were most of the allocations), with caching
// on and off, and through AppendBatch. A measured call is eight appends and
// AllocsPerRun rounds down, so what gets through is what the engine keeps — a
// window chunk every 128 appends, a cache entry's backing when it grows —
// and anything per append, per result or per batch fails.
func TestEngineInsertAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		name  string
		opts  Options
		batch bool
	}{
		{"caching", Options{Seed: 1}, false},
		{"mjoin", Options{Seed: 1, DisableCaching: true}, false},
		{"batch", Options{Seed: 1}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := NewQuery().
				WindowedRelation("R", 100, "A").
				WindowedRelation("S", 100, "A", "B").
				WindowedRelation("T", 100, "B").
				Join("R.A", "S.A").
				Join("S.B", "T.B").
				Build(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			results := 0
			eng.OnResult(func(bool, []int64) { results++ })
			rng := rand.New(rand.NewSource(1))
			rows := [][]int64{{0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}}
			step := func() {
				rel, arity := "S", 2
				switch rng.Intn(3) {
				case 0:
					rel, arity = "R", 1
				case 1:
					rel, arity = "T", 1
				}
				for i := range rows {
					rows[i] = rows[i][:arity]
					for c := range rows[i] {
						rows[i][c] = rng.Int63n(100)
					}
				}
				if tc.batch {
					eng.AppendBatch(rel, rows)
					return
				}
				for _, r := range rows {
					eng.Append(rel, r...)
				}
			}
			// Warm: fill every window past capacity and let the engine settle
			// on its caches, so inserts, expiries, probes, misses and output
			// emission are all exercised by the measured runs.
			for i := 0; i < 5_000; i++ {
				step()
			}
			results = 0
			if got := testing.AllocsPerRun(500, step); got != 0 {
				t.Fatalf("warm three-way append: %.0f allocs per eight appends, want 0", got)
			}
			if results == 0 {
				t.Fatal("the measured appends emitted no result")
			}
		})
	}
}

// BenchmarkEngineProcessBatch measures the vectorized batch path against the
// per-update loop on a bursty 4-way common-attribute workload (window 64,
// domain 16, bursts of 256 rows per relation visit). Domain 16 puts each
// probe's fan-out near 4 — the join-selectivity regime the paper's
// experiments run at, and the one the batch path amortizes: sub-batches of
// composites share probe keys and duplicate updates share whole pipeline
// passes. Every sub-benchmark replays the identical row stream; b.N counts
// tuples. "loop" appends rows one at a time, "batch=K" feeds the same bursts
// through AppendBatch in chunks of K. ReoptInterval is pushed out so the
// steady state after the initial cache selection is what's measured. The
// committed wall-clock measurement of the batch path is benchmark/'s
// shard2_batch workload (join.run_ns_per_update, join.run_len_mean).
func BenchmarkEngineProcessBatch(b *testing.B) {
	const nRel, window, domain, burst = 4, 64, 16, 256
	names := make([]string, nRel)
	for i := range names {
		names[i] = fmt.Sprintf("R%d", i)
	}
	run := func(b *testing.B, batch int) {
		q := NewQuery()
		for _, n := range names {
			q.WindowedRelation(n, window, "A")
		}
		for i := 1; i < nRel; i++ {
			q.Join("R0.A", names[i]+".A")
		}
		eng, err := q.Build(Options{Seed: 1, ReoptInterval: 10_000_000})
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		rows := make([][]int64, burst)
		for i := range rows {
			rows[i] = make([]int64, 1)
		}
		rel := 0
		feed := func(n int) {
			for i := 0; i < n; i++ {
				rows[i][0] = rng.Int63n(domain)
			}
			name := names[rel]
			rel = (rel + 1) % nRel
			if batch <= 0 {
				for _, r := range rows[:n] {
					eng.Append(name, r...)
				}
				return
			}
			for off := 0; off < n; off += batch {
				end := off + batch
				if end > n {
					end = n
				}
				eng.AppendBatch(name, rows[off:end])
			}
		}
		// Warm: fill every window past capacity so the measured runs exercise
		// expiries, probes, and output emission.
		for i := 0; i < 2*nRel; i++ {
			feed(burst)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for done := 0; done < b.N; {
			n := burst
			if rest := b.N - done; n > rest {
				n = rest
			}
			feed(n)
			done += n
		}
	}
	b.Run("loop", func(b *testing.B) { run(b, 0) })
	for _, batch := range []int{1, 8, 64, 256} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) { run(b, batch) })
	}
}

// BenchmarkShardedInsert measures wall-clock append throughput of the
// sharded engine at increasing shard counts on the Fig9-style n-way
// common-attribute workload (6 relations joined on A, window 50, domain
// 100). On a multi-core host throughput scales with shards; with
// GOMAXPROCS=1 the shards time-slice one core and the numbers measure
// sharding overhead instead.
func BenchmarkShardedInsert(b *testing.B) {
	const nRel = 6
	names := make([]string, nRel)
	for i := range names {
		names[i] = fmt.Sprintf("R%d", i)
	}
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", p), func(b *testing.B) {
			q := NewQuery()
			for _, n := range names {
				q.WindowedRelation(n, 50, "A")
			}
			for i := 1; i < nRel; i++ {
				q.Join("R0.A", names[i]+".A")
			}
			eng, err := q.BuildSharded(Options{Seed: 1}, ShardOptions{Shards: p})
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			rng := rand.New(rand.NewSource(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Append(names[i%nRel], rng.Int63n(100))
			}
			eng.Flush()
			b.StopTimer()
		})
	}
}

func BenchmarkCacheProbeHit(b *testing.B) {
	c := cache.New(1<<12, 8, -1, &cost.Meter{})
	keys := make([]tuple.Key, 256)
	for i := range keys {
		keys[i] = tuple.KeyOfValues([]tuple.Value{int64(i)})
		c.Create(keys[i], []tuple.Tuple{{int64(i), int64(i)}})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ProbeBytes([]byte(keys[i%len(keys)]))
	}
}

func BenchmarkCacheMaintenance(b *testing.B) {
	c := cache.New(1<<12, 8, -1, &cost.Meter{})
	keys := make([]tuple.Key, 256)
	for i := range keys {
		keys[i] = tuple.KeyOfValues([]tuple.Value{int64(i)})
		c.Create(keys[i], nil)
	}
	tp := tuple.Tuple{1, 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := []byte(keys[i%len(keys)])
		c.InsertBytes(u, tp)
		c.DeleteBytes(u, tp)
	}
}
