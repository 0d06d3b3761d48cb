package core

import (
	"math/rand"
	"testing"

	"acache/internal/oracle"
	"acache/internal/planner"
	"acache/internal/query"
	"acache/internal/stream"
	"acache/internal/tuple"
)

// TestFuzzEngineVsOracle is the in-test version of cmd/acache-verify:
// randomized queries (with theta predicates), starting orderings,
// adaptivity settings, and update streams, every output delta compared
// against the naive oracle.
func TestFuzzEngineVsOracle(t *testing.T) {
	trials := 12
	if testing.Short() {
		trials = 3
	}
	for trial := 0; trial < trials; trial++ {
		seed := int64(1000 + trial)
		rng := rand.New(rand.NewSource(seed))
		q := fuzzQuery(t, rng)
		cfg := Config{
			ReoptInterval: 100 + rng.Intn(400),
			GCQuota:       rng.Intn(8),
			BudgetAware:   rng.Intn(3) == 0,
			MemoryBudget:  -1,
			Seed:          seed,
		}
		if rng.Intn(4) == 0 {
			cfg.MemoryBudget = 1024 * (1 + rng.Intn(8))
		}
		// The join-graph ordering, or half the time a random valid one,
		// whose steps may be cross products.
		var ord planner.Ordering
		if rng.Intn(2) == 0 {
			ord = make(planner.Ordering, q.N())
			for i := range ord {
				for _, r := range rng.Perm(q.N()) {
					if r != i {
						ord[i] = append(ord[i], r)
					}
				}
			}
		}
		en, err := NewEngine(q, ord, cfg)
		if err != nil {
			t.Fatalf("trial %d: NewEngine: %v", trial, err)
		}
		o := oracle.New(q)
		live := make([][]tuple.Tuple, q.N())
		domain := int64(3 + rng.Intn(8))
		for i := 0; i < 1200; i++ {
			rel := rng.Intn(q.N())
			var u stream.Update
			if len(live[rel]) > 3 && (len(live[rel]) > 12 || rng.Intn(2) == 0) {
				j := rng.Intn(len(live[rel]))
				u = stream.Update{Op: stream.Delete, Rel: rel, Tuple: live[rel][j]}
				live[rel] = append(live[rel][:j:j], live[rel][j+1:]...)
			} else {
				tp := make(tuple.Tuple, q.Schema(rel).Len())
				for c := range tp {
					tp[c] = rng.Int63n(domain)
				}
				live[rel] = append(live[rel], tp)
				u = stream.Update{Op: stream.Insert, Rel: rel, Tuple: tp}
			}
			got := en.Process(u)
			want := len(o.Process(u))
			if got != want {
				t.Fatalf("trial %d (seed %d) update %d %v: engine %d, oracle %d\nconfig %+v\nordering %v",
					trial, seed, i, u, got, want, cfg, ord)
			}
		}
	}
}

func fuzzQuery(t *testing.T, rng *rand.Rand) *query.Query {
	t.Helper()
	// A chain on A (one class), or R(i−1).B = R(i).A (one class per link).
	n := 3 + rng.Intn(3)
	links := rng.Intn(2) == 0
	schemas := make([]*tuple.Schema, n)
	var preds []query.Pred
	for i := 0; i < n; i++ {
		schemas[i] = tuple.RelationSchema(i, "A", "B", "C")
		if i > 0 {
			left := tuple.Attr{Rel: i - 1, Name: "A"}
			if links {
				left.Name = "B"
			}
			preds = append(preds, query.Pred{Left: left, Right: tuple.Attr{Rel: i, Name: "A"}})
		}
	}
	var thetas []query.ThetaPred
	for i := 1; i < n; i++ {
		if rng.Intn(3) == 0 {
			thetas = append(thetas, query.ThetaPred{
				Left:  tuple.Attr{Rel: i - 1, Name: "C"},
				Op:    query.CmpOp(rng.Intn(5)),
				Right: tuple.Attr{Rel: i, Name: "C"},
			})
		}
	}
	q, err := query.NewWithThetas(schemas, preds, thetas)
	if err != nil {
		t.Fatal(err)
	}
	return q
}
