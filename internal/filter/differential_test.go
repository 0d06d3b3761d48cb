package filter_test

// Engine-level differential property test for the fingerprint filters: a
// filtered engine and a DisableFilters engine replaying the same randomized
// insert/delete workload must be indistinguishable in everything observable —
// the result stream, the relation window contents, and the simulated
// cost-charge total (the filters short-circuit real slot searches, never the
// meter). The fuzz target extends the property to adversarial workload
// parameters; `go test -race` covers the whole package in CI.

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"acache/internal/core"
	"acache/internal/planner"
	"acache/internal/query"
	"acache/internal/stream"
	"acache/internal/tuple"
)

func diffQuery(t testing.TB) *query.Query {
	t.Helper()
	q, err := query.New(
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
	if err != nil {
		t.Fatalf("query.New: %v", err)
	}
	return q
}

// diffUpdates builds a randomized insert/delete sequence honoring per-
// relation sliding windows, so deletes always target live tuples.
func diffUpdates(q *query.Query, n, window int, domain, seed int64) []stream.Update {
	rng := rand.New(rand.NewSource(seed))
	wins := make([][]tuple.Tuple, q.N())
	ups := make([]stream.Update, 0, n)
	for len(ups) < n {
		rel := rng.Intn(q.N())
		w := wins[rel]
		if len(w) >= window || (len(w) > 0 && rng.Intn(4) == 0) {
			ups = append(ups, stream.Update{Op: stream.Delete, Rel: rel, Tuple: w[0]})
			wins[rel] = w[1:]
			continue
		}
		tp := make(tuple.Tuple, q.Schema(rel).Len())
		for c := range tp {
			tp[c] = tuple.Value(rng.Int63n(domain))
		}
		ups = append(ups, stream.Update{Op: stream.Insert, Rel: rel, Tuple: tp})
		wins[rel] = append(w, tp)
	}
	return ups
}

// diffReplay drives ups through a fresh engine and captures everything the
// differential property compares.
func diffReplay(t testing.TB, q *query.Query, cfg core.Config, ups []stream.Update) (results []string, work string, windows []string) {
	t.Helper()
	en, err := core.NewEngine(q, planner.Ordering{{1, 2}, {2, 0}, {1, 0}}, cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	en.OnResult(func(insert bool, result []tuple.Value) {
		results = append(results, fmt.Sprint(insert, result))
	})
	for _, u := range ups {
		en.Process(u)
	}
	snap := en.Snapshot()
	work = fmt.Sprint(snap.Outputs, snap.Work, snap.Reopts, snap.SkippedReopts)
	for rel := 0; rel < q.N(); rel++ {
		all := en.Exec().Store(rel).All()
		rows := make([]string, len(all))
		for i, tp := range all {
			rows[i] = fmt.Sprint(tp)
		}
		sort.Strings(rows)
		windows = append(windows, fmt.Sprint(rows))
	}
	return results, work, windows
}

func checkFilteredMatchesUnfiltered(t testing.TB, cfg core.Config, n, window int, domain, seed int64) {
	t.Helper()
	q := diffQuery(t)
	ups := diffUpdates(q, n, window, domain, seed)
	offCfg := cfg
	offCfg.DisableFilters = true
	res, work, wins := diffReplay(t, q, cfg, ups)
	resOff, workOff, winsOff := diffReplay(t, q, offCfg, ups)
	if len(res) != len(resOff) {
		t.Fatalf("%d filtered results, %d unfiltered", len(res), len(resOff))
	}
	for i := range res {
		if res[i] != resOff[i] {
			t.Fatalf("result %d diverges: filtered %s, unfiltered %s", i, res[i], resOff[i])
		}
	}
	if work != workOff {
		t.Fatalf("cost-charge totals diverge: filtered %q, unfiltered %q", work, workOff)
	}
	for rel := range wins {
		if wins[rel] != winsOff[rel] {
			t.Fatalf("relation %d window contents diverge:\nfiltered   %s\nunfiltered %s",
				rel, wins[rel], winsOff[rel])
		}
	}
}

func TestFilteredEngineMatchesUnfiltered(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    core.Config
		domain int64
	}{
		// Small ReoptInterval exercises the adaptivity loop (including the
		// filter knob) many times inside each run.
		{"adaptive-missy", core.Config{ReoptInterval: 300, Seed: 1}, 200},
		{"adaptive-hitty", core.Config{ReoptInterval: 300, Seed: 2}, 8},
		{"nocache", core.Config{DisableCaching: true, Seed: 3}, 50},
		{"gc", core.Config{ReoptInterval: 300, GCQuota: 6, Seed: 4}, 30},
		{"budget", core.Config{ReoptInterval: 300, MemoryBudget: 2048, Seed: 6}, 50},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkFilteredMatchesUnfiltered(t, tc.cfg, 6_000, 50, tc.domain, 100+tc.cfg.Seed)
		})
	}
}

// FuzzFilteredEngineMatchesUnfiltered lets the fuzzer pick the workload
// shape; any divergence between the filtered and unfiltered engines is a
// correctness bug (a filter false negative or a charge leak).
func FuzzFilteredEngineMatchesUnfiltered(f *testing.F) {
	f.Add(int64(1), int64(20), uint8(30), uint16(1500))
	f.Add(int64(7), int64(3), uint8(10), uint16(800))
	f.Add(int64(42), int64(500), uint8(60), uint16(2000))
	f.Fuzz(func(t *testing.T, seed, domain int64, window uint8, n uint16) {
		if domain <= 0 {
			domain = 1
		}
		w := int(window%60) + 2
		steps := int(n)%2_000 + 100
		cfg := core.Config{ReoptInterval: 250, Seed: seed}
		checkFilteredMatchesUnfiltered(t, cfg, steps, w, domain, seed)
	})
}
