package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"acache/internal/join"
	"acache/internal/planner"
	"acache/internal/query"
	"acache/internal/stream"
	"acache/internal/tuple"
)

// Equivalence tests for the vectorized batch path: for a fixed update
// sequence, ProcessBatch at any chunk size must leave an engine in exactly
// the state the per-update Process loop does — same result stream, same
// counters, same simulated cost total (the bit-identical charge guarantee),
// same store and cache contents, same candidate states.

// burstUpdates builds an update sequence with long same-relation same-op
// runs: each visit to a relation evicts the oldest window tuples as one
// delete burst, then appends a burst of fresh inserts. This is the shape the
// run splitter thrives on; the windowSource sequences in engineStates cover
// the opposite extreme (relations interleaved, runs of length one).
func burstUpdates(q *query.Query, n, window, burst int, domain, seed int64) []stream.Update {
	rng := rand.New(rand.NewSource(seed))
	wins := make([][]tuple.Tuple, q.N())
	ups := make([]stream.Update, 0, n)
	rel := 0
	for len(ups) < n {
		ncols := q.Schema(rel).Len()
		w := wins[rel]
		if evict := len(w) + burst - window; evict > 0 {
			if evict > len(w) {
				evict = len(w)
			}
			for _, t := range w[:evict] {
				ups = append(ups, stream.Update{Op: stream.Delete, Rel: rel, Tuple: t})
			}
			w = w[evict:]
		}
		for b := 0; b < burst; b++ {
			t := make(tuple.Tuple, ncols)
			for c := range t {
				t[c] = tuple.Value(rng.Int63n(domain))
			}
			ups = append(ups, stream.Update{Op: stream.Insert, Rel: rel, Tuple: t})
			w = append(w, t)
		}
		wins[rel] = w
		rel = (rel + 1) % q.N()
	}
	return ups[:n]
}

// sourceUpdates records n updates from a windowSource so the same sequence
// can be replayed into several engines.
func sourceUpdates(q *query.Query, n, window int, domain, seed int64) []stream.Update {
	src := windowSource(q, window, domain, seed)
	ups := make([]stream.Update, n)
	for i := range ups {
		ups[i] = src.Next()
	}
	return ups
}

// engineState is everything the equivalence tests compare between the serial
// and batched replays of a sequence.
type engineState struct {
	results []string
	snap    Snapshot
	states  string
	stores  []string
	caches  []string
}

func captureState(en *Engine) engineState {
	var st engineState
	st.snap = en.Snapshot()
	// ReoptNanos is wall-clock time, not logical work.
	st.snap.ReoptNanos = 0
	st.states = cacheStates(en)
	for rel := 0; rel < en.q.N(); rel++ {
		st.stores = append(st.stores, fmt.Sprint(en.exec.Store(rel).All()))
	}
	ids := make([]string, 0, len(en.instances))
	for id := range en.instances {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	counted := make(map[*join.Instance]bool) // incrementally maintained GC caches
	for _, c := range en.cands {
		if c.inst != nil {
			counted[c.inst] = c.spec.GC && !c.spec.SelfMaint
		}
	}
	for _, id := range ids {
		inst := en.instances[id]
		c := inst.Cache()
		dump := fmt.Sprintf("%s entries=%d used=%d stats=%+v;", id, c.Entries(), c.UsedBytes(), c.Stats())
		if counted[inst] {
			c.EachCounted(func(u tuple.Key, v []tuple.Tuple, mults, supports []int) {
				dump += fmt.Sprintf(" %v=%v*%v/%v", u, v, mults, supports)
			})
		} else {
			c.Each(func(u tuple.Key, v []tuple.Tuple) {
				dump += fmt.Sprintf(" %v=%v", u, v)
			})
		}
		st.caches = append(st.caches, dump)
	}
	return st
}

// replay drives ups through a fresh engine in chunks of the given size
// (chunk 0 = per-update Process loop) and captures the final state.
func replay(t *testing.T, mk func() *Engine, ups []stream.Update, chunk int) engineState {
	t.Helper()
	en := mk()
	var results []string
	en.OnResult(func(insert bool, result []tuple.Value) {
		results = append(results, fmt.Sprint(insert, result))
	})
	if chunk == 0 {
		for _, u := range ups {
			en.Process(u)
		}
	} else {
		for i := 0; i < len(ups); i += chunk {
			j := i + chunk
			if j > len(ups) {
				j = len(ups)
			}
			en.ProcessBatch(ups[i:j])
		}
	}
	st := captureState(en)
	st.results = results
	return st
}

func diffStates(t *testing.T, label string, want, got engineState) {
	t.Helper()
	if want.snap != got.snap {
		t.Errorf("%s: snapshot mismatch\nserial %+v\nbatch  %+v", label, want.snap, got.snap)
	}
	if len(want.results) != len(got.results) {
		t.Errorf("%s: %d serial results, %d batch results", label, len(want.results), len(got.results))
	} else {
		for i := range want.results {
			if want.results[i] != got.results[i] {
				t.Errorf("%s: result %d: serial %s, batch %s", label, i, want.results[i], got.results[i])
				break
			}
		}
	}
	if want.states != got.states {
		t.Errorf("%s: cache states\nserial %s\nbatch  %s", label, want.states, got.states)
	}
	for rel := range want.stores {
		if want.stores[rel] != got.stores[rel] {
			t.Errorf("%s: store %d contents diverge", label, rel)
		}
	}
	if len(want.caches) != len(got.caches) {
		t.Errorf("%s: %d serial cache instances, %d batch", label, len(want.caches), len(got.caches))
	} else {
		for i := range want.caches {
			if want.caches[i] != got.caches[i] {
				t.Errorf("%s: cache %d diverges\nserial %s\nbatch  %s", label, i, want.caches[i], got.caches[i])
			}
		}
	}
}

func checkBatchEquivalence(t *testing.T, mk func() *Engine, ups []stream.Update) {
	t.Helper()
	serial := replay(t, mk, ups, 0)
	for _, chunk := range []int{1, 7, 64, len(ups)} {
		diffStates(t, fmt.Sprintf("chunk=%d", chunk), serial, replay(t, mk, ups, chunk))
		if t.Failed() {
			t.FailNow()
		}
	}
}

func TestProcessBatchMatchesSerial3Way(t *testing.T) {
	q := threeWay(t)
	mk := func() *Engine {
		en, err := NewEngine(q, planner.Ordering{{1, 2}, {2, 0}, {1, 0}}, Config{
			ReoptInterval: 300, // several reopt + profiling phases inside the run
			Seed:          1,
		})
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		return en
	}
	checkBatchEquivalence(t, mk, burstUpdates(q, 5000, 40, 16, 10, 2))
}

func TestProcessBatchMatchesSerialInterleaved(t *testing.T) {
	// Runs of length one: the driver must agree with serial even when it can
	// never vectorize.
	q := threeWay(t)
	mk := func() *Engine {
		en, err := NewEngine(q, planner.Ordering{{1, 2}, {2, 0}, {1, 0}}, Config{
			ReoptInterval: 300,
			Seed:          3,
		})
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		return en
	}
	checkBatchEquivalence(t, mk, sourceUpdates(q, 4000, 40, 10, 4))
}

func TestProcessBatchMatchesSerialGC(t *testing.T) {
	// Counted (GC) maintenance marks pipelines non-batchable; the driver must
	// fall back to the serial path and still agree exactly.
	q := fourWayClique(t)
	mk := func() *Engine {
		en, err := NewEngine(q, planner.Ordering{{1, 2, 3}, {0, 2, 3}, {0, 1, 3}, {1, 2, 0}}, Config{
			ReoptInterval: 400,
			GCQuota:       6,
			Seed:          5,
		})
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		return en
	}
	checkBatchEquivalence(t, mk, burstUpdates(q, 5000, 30, 12, 8, 6))
}

func TestProcessBatchMatchesSerialForcedAndDisabled(t *testing.T) {
	q := threeWay(t)
	ord := planner.Ordering{{1, 2}, {2, 0}, {1, 0}}
	cands := planner.Candidates(q, ord)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"forced", Config{ForcedCaches: cands, Seed: 11}},
		{"disabled", Config{DisableCaching: true, Seed: 13}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mk := func() *Engine {
				en, err := NewEngine(q, ord, tc.cfg)
				if err != nil {
					t.Fatalf("NewEngine: %v", err)
				}
				return en
			}
			checkBatchEquivalence(t, mk, burstUpdates(q, 4000, 50, 16, 5, 14))
		})
	}
}

func TestProcessBatchMatchesSerialMemoryPressure(t *testing.T) {
	// Tiny budget: caches drop and reallocate mid-run, versioning the probe
	// memos; batched replay must track every transition.
	q := threeWay(t)
	mk := func() *Engine {
		en, err := NewEngine(q, planner.Ordering{{1, 2}, {2, 0}, {1, 0}}, Config{
			ReoptInterval: 300,
			MemoryBudget:  2048,
			Seed:          17,
		})
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		return en
	}
	checkBatchEquivalence(t, mk, burstUpdates(q, 5000, 60, 16, 6, 18))
}
