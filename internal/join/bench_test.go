package join

import (
	"math/rand"
	"testing"

	"acache/internal/cost"
	"acache/internal/planner"
	"acache/internal/query"
	"acache/internal/stream"
	"acache/internal/tuple"
)

// Wall-clock micro-benchmarks of the executor's hot paths. The simulated
// cost model measures plan quality; these measure the implementation.

// benchExec builds the three-way executor the benchmarks drive; scan makes
// every join a nested loop, as Figure 10 does to S.B.
func benchExec(b testing.TB, attach, scan bool) (*Exec, []stream.Update) {
	b.Helper()
	q, err := threeWayBench()
	if err != nil {
		b.Fatal(err)
	}
	ord := planner.Ordering{{1, 2}, {0, 2}, {1, 0}}
	var opts Options
	if scan {
		opts.ScanOnly = []tuple.Attr{{Rel: 0, Name: "A"}, {Rel: 1, Name: "A"}, {Rel: 1, Name: "B"}, {Rel: 2, Name: "B"}}
	}
	meter := &cost.Meter{}
	e, err := NewExec(q, ord, meter, opts)
	if err != nil {
		b.Fatal(err)
	}
	if attach {
		spec := planner.Candidates(q, ord)[0]
		inst := NewInstance(q, spec, 1<<10, -1, meter)
		if err := e.AttachCache(spec, inst); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	ups := randomUpdatesB(rng, 3, []int{1, 2, 1}, 4096, 64)
	return e, ups
}

func randomUpdatesB(rng *rand.Rand, nrels int, arity []int, count int, domain int64) []stream.Update {
	live := make([][]tuple.Tuple, nrels)
	var ups []stream.Update
	for len(ups) < count {
		rel := rng.Intn(nrels)
		if len(live[rel]) > 50 && rng.Intn(2) == 0 {
			j := rng.Intn(len(live[rel]))
			tp := live[rel][j]
			live[rel] = append(live[rel][:j:j], live[rel][j+1:]...)
			ups = append(ups, stream.Update{Op: stream.Delete, Rel: rel, Tuple: tp})
			continue
		}
		tp := make(tuple.Tuple, arity[rel])
		for c := range tp {
			tp[c] = rng.Int63n(domain)
		}
		live[rel] = append(live[rel], tp)
		ups = append(ups, stream.Update{Op: stream.Insert, Rel: rel, Tuple: tp})
	}
	return ups
}

func threeWayBench() (*query.Query, error) {
	return query.New(
		[]*tuple.Schema{
			tuple.RelationSchema(0, "A"),
			tuple.RelationSchema(1, "A", "B"),
			tuple.RelationSchema(2, "B"),
		},
		[]query.Pred{
			{Left: tuple.Attr{Rel: 0, Name: "A"}, Right: tuple.Attr{Rel: 1, Name: "A"}},
			{Left: tuple.Attr{Rel: 1, Name: "B"}, Right: tuple.Attr{Rel: 2, Name: "B"}},
		},
	)
}

// runBench cycles the prepared update sequence; each full cycle replays
// inserts of already-present tuples, so state is rebuilt between cycles
// with the timer paused to keep per-op numbers meaningful at any b.N.
func runBench(b *testing.B, attach, profiled, scan bool) {
	b.Helper()
	e, ups := benchExec(b, attach, scan)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%len(ups) == 0 {
			b.StopTimer()
			e, ups = benchExec(b, attach, scan)
			b.StartTimer()
		}
		if profiled {
			e.ProcessProfiled(ups[i%len(ups)])
		} else {
			e.Process(ups[i%len(ups)])
		}
	}
}

func BenchmarkProcessNoCaches(b *testing.B) { runBench(b, false, false, false) }

// BenchmarkProcessScan is BenchmarkProcessNoCaches with every join a nested
// loop: the dense scan kernel (Store.ScanEq) at windows of about 50 tuples.
func BenchmarkProcessScan(b *testing.B) { runBench(b, false, false, true) }

func BenchmarkProcessWithCache(b *testing.B) { runBench(b, true, false, false) }

func BenchmarkProcessProfiled(b *testing.B) { runBench(b, true, true, false) }

// TestWarmExecAllocFree pins the executor's share of an allocation-free
// Append: a warm Process (cache hits, misses and creates) and a warm
// ProcessProfiled (Profile out of executor scratch) allocate nothing per
// update, nor does a warm scan-only executor's (nested loops over dense scan
// columns). AllocsPerRun rounds down, which lets through a cache entry's
// backing growing now and then.
func TestWarmExecAllocFree(t *testing.T) {
	for _, scan := range []bool{false, true} {
		e, ups := benchExec(t, !scan, scan)
		i := 0
		step := func() {
			if i%2 == 0 {
				e.Process(ups[i])
			} else if _, prof := e.ProcessProfiled(ups[i]); len(prof.StepUnits) != 2 {
				t.Fatalf("profile of %d steps, want 2", len(prof.StepUnits))
			}
			i++
		}
		for i < 2000 {
			step()
		}
		if got := testing.AllocsPerRun(2000, step); got != 0 {
			t.Fatalf("warm Process/ProcessProfiled (scan-only %v): %.0f allocs per update, want 0", scan, got)
		}
	}
}
