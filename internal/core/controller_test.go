package core

import (
	"math"
	"testing"
	"time"

	"acache/internal/planner"
	"acache/internal/stream"
	"acache/internal/synth"
	"acache/internal/tuple"
)

// TestOnlyAdaptiveControllerSamples checks that only a running adaptive
// controller draws profiling decisions (DESIGN.md §23): an MJoin and a pinned
// plan never sample, through either entry point, and a paused adaptive
// engine stops sampling until it resumes.
func TestOnlyAdaptiveControllerSamples(t *testing.T) {
	q := threeWay(t)
	ord := planner.Ordering{{1, 2}, {2, 0}, {1, 0}}
	ups := burstUpdates(q, 20_000, 40, 16, 10, 7)
	feed := func(en *Engine, ups []stream.Update, batch bool) {
		if batch {
			for i := 0; i < len(ups); i += 64 {
				en.ProcessBatch(ups[i:min(i+64, len(ups))])
			}
			return
		}
		for _, u := range ups {
			en.Process(u)
		}
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"mjoin", Config{DisableCaching: true, Seed: 3}},
		{"pinned", Config{ForcedCaches: planner.Candidates(q, ord)[:1], Seed: 3}},
	} {
		for _, batch := range []bool{false, true} {
			en, err := NewEngine(q, ord, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			feed(en, ups, batch)
			if s := en.Snapshot(); s.Updates != len(ups) || s.SampledUpdates != 0 {
				t.Errorf("%s (batch %v): %d updates, %d sampled; want %d, 0", tc.name, batch, s.Updates, s.SampledUpdates, len(ups))
			}
		}
	}

	en, err := NewEngine(q, ord, Config{ReoptInterval: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	feed(en, ups[:5000], false)
	before := en.Snapshot().SampledUpdates
	if before != 5000 {
		t.Fatalf("adaptive engine sampled %d of 5000 updates, want every one", before)
	}
	en.SetCachingPaused(true)
	feed(en, ups[5000:10_000], false)
	feed(en, ups[10_000:15_000], true)
	if got := en.Snapshot().SampledUpdates; got != before {
		t.Fatalf("paused engine sampled: %d → %d", before, got)
	}
	en.SetCachingPaused(false)
	feed(en, ups[15_000:], true)
	if got, want := en.Snapshot().SampledUpdates, before+5000; got != want {
		t.Fatalf("resumed engine sampled %d updates in all, want %d", got, want)
	}
}

// star3Hit replays a stream shaped like the benchmark's star3_hit workload
// (the paper's §7.2 default point: every join indexed) over threeWayQuery's
// R(A) ⋈ S(A, B) ⋈ T(B): cyclic keys over a domain of 1000, windows of 1000,
// T appending five times as often as R and S, each T value repeated five
// times.
func star3Hit() *stream.Source {
	return stream.NewSource([]stream.RelStream{
		{Gen: synth.Tuples(synth.Counter(0, 1000, 1)), WindowSize: 1000, Rate: 1},
		{Gen: synth.Tuples(synth.Counter(0, 1000, 1), synth.Counter(0, 1000, 1)), WindowSize: 1000, Rate: 1},
		{Gen: synth.Tuples(synth.Counter(0, 1000, 5)), WindowSize: 1000, Rate: 5},
	})
}

// BenchmarkEngineArms times the three controllers on one star3_hit-shaped
// update stream, replayed identically to each arm after a common warm-up:
// mjoin (DisableCaching), pinned (ForcedCaches set to the caches the
// adaptive engine uses at the end of the warm-up) and adaptive. b.N counts
// updates; the stream is drawn untimed in chunks large enough that the
// timer's own stops cost well under 1 ns per update. Besides the mean it
// reports min-ns/update, the fastest full chunk, which a passing disturbance
// (a collection, a preemption) does not reach. Every arm must emit the same
// results over the warm-up, and over the measured updates whenever two arms
// run the same b.N (-benchtime Nx).
func BenchmarkEngineArms(b *testing.B) {
	const warm, chunk = 60_000, 1 << 16
	q, err := threeWayQuery()
	if err != nil {
		b.Fatal(err)
	}
	base := Config{MemoryBudget: -1, GCQuota: 6, Seed: 1}
	run := func(cfg Config, n int) (*Engine, *stream.Source) {
		en, err := NewEngine(q, nil, cfg)
		if err != nil {
			b.Fatal(err)
		}
		en.OnResult(func(bool, []tuple.Value) {}) // emit, as a query with a consumer does
		src := star3Hit()
		for i := 0; i < n; i++ {
			en.Process(src.Next())
		}
		return en, src
	}
	probe, _ := run(base, warm)
	pinned := base
	pinned.ForcedCaches = probe.UsedCaches()
	if len(pinned.ForcedCaches) == 0 {
		b.Fatal("the adaptive engine adopted no cache during the warm-up")
	}
	mjoin := base
	mjoin.DisableCaching = true

	warmOutputs := make(map[string]uint64)
	outputs := make(map[int]uint64) // by b.N: the measured results of the first arm to run it
	for _, arm := range []struct {
		name string
		cfg  Config
	}{{"mjoin", mjoin}, {"pinned", pinned}, {"adaptive", base}} {
		b.Run(arm.name, func(b *testing.B) {
			en, src := run(arm.cfg, warm)
			w := en.Snapshot().Outputs
			warmOutputs[arm.name] = w
			if w != warmOutputs["mjoin"] {
				b.Fatalf("%s emitted %d results over the warm-up, mjoin %d", arm.name, w, warmOutputs["mjoin"])
			}
			buf := make([]stream.Update, chunk)
			best := time.Duration(math.MaxInt64)
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; {
				b.StopTimer()
				k := min(chunk, b.N-done)
				for i := range buf[:k] {
					buf[i] = src.Next()
				}
				b.StartTimer()
				start := time.Now()
				for _, u := range buf[:k] {
					en.Process(u)
				}
				if d := time.Since(start); k == chunk && d < best {
					best = d
				}
				done += k
			}
			b.StopTimer()
			if best < math.MaxInt64 {
				b.ReportMetric(float64(best.Nanoseconds())/chunk, "min-ns/update")
			}
			got := en.Snapshot().Outputs - w
			if want, ok := outputs[b.N]; !ok {
				outputs[b.N] = got
			} else if got != want {
				b.Fatalf("%s emitted %d results over %d updates, an earlier arm %d", arm.name, got, b.N, want)
			}
		})
	}
}
