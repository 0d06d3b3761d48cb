package filter_test

// Engine-level differential property test for the relation indexes' probe
// shortcut. The indexes were once fronted by this package's fingerprint
// filters; they now answer a one-column probe from the 64-bit slot hash
// alone, which a bijective hash makes exact (DESIGN.md §20). The property the
// filters had to keep is the one the shortcut has to keep: the engine loses
// and invents no match. An engine replaying a randomized insert/delete
// workload is checked against an unindexed nested-loop reference — the result
// delta of every update and the final window contents — and a second
// replay of the same workload must reproduce the result stream, the window
// contents and the simulated cost-charge total exactly. The fuzz target
// extends the property to adversarial workload parameters; `go test -race`
// covers the whole package in CI.

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

// row is one result of the chain query in canonical column order:
// R0.A, R1.A, R1.B, R2.B.
type row [4]tuple.Value

// nestedLoop is the unfiltered reference: plain window slices joined by
// scanning, with no index, hash or filter between a probe and a match.
type nestedLoop struct{ wins [3][]tuple.Tuple }

// process applies u and returns its result delta, sorted.
func (nl *nestedLoop) process(u stream.Update) []row {
	var out []row
	v := u.Tuple
	switch u.Rel {
	case 0:
		for _, s := range nl.wins[1] {
			if s[0] != v[0] {
				continue
			}
			for _, r := range nl.wins[2] {
				if r[0] == s[1] {
					out = append(out, row{v[0], s[0], s[1], r[0]})
				}
			}
		}
	case 1:
		for _, l := range nl.wins[0] {
			if l[0] != v[0] {
				continue
			}
			for _, r := range nl.wins[2] {
				if r[0] == v[1] {
					out = append(out, row{l[0], v[0], v[1], r[0]})
				}
			}
		}
	case 2:
		for _, s := range nl.wins[1] {
			if s[1] != v[0] {
				continue
			}
			for _, l := range nl.wins[0] {
				if l[0] == s[0] {
					out = append(out, row{l[0], s[0], s[1], v[0]})
				}
			}
		}
	}
	w := nl.wins[u.Rel]
	if u.Op == stream.Insert {
		nl.wins[u.Rel] = append(w, u.Tuple)
	} else {
		for i, tp := range w {
			if tp.Equal(u.Tuple) {
				nl.wins[u.Rel] = append(w[:i:i], w[i+1:]...)
				break
			}
		}
	}
	sortRows(out)
	return out
}

func sortRows(rs []row) {
	sort.Slice(rs, func(i, j int) bool {
		for c := range rs[i] {
			if rs[i][c] != rs[j][c] {
				return rs[i][c] < rs[j][c]
			}
		}
		return false
	})
}

// sortedWindow renders a window as a sorted list, a multiset view that two
// sources holding the same tuples in different orders agree on.
func sortedWindow(ts []tuple.Tuple) string {
	rows := make([]string, len(ts))
	for i, tp := range ts {
		rows[i] = fmt.Sprint(tp)
	}
	sort.Strings(rows)
	return fmt.Sprint(rows)
}

// diffReplay drives ups through a fresh engine. With ref non-nil it checks
// every update's result delta and the final windows against the reference.
// It returns everything two replays must agree on.
func diffReplay(t testing.TB, q *query.Query, cfg core.Config, ups []stream.Update, ref *nestedLoop) (results []string, work string, windows []string) {
	t.Helper()
	en, err := core.NewEngine(q, planner.Ordering{{1, 2}, {2, 0}, {1, 0}}, cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	var delta []row
	en.OnResult(func(insert bool, result []tuple.Value) {
		results = append(results, fmt.Sprint(insert, result))
		delta = append(delta, row(result))
	})
	for i, u := range ups {
		delta = delta[:0]
		en.Process(u)
		if ref == nil {
			continue
		}
		want := ref.process(u)
		sortRows(delta)
		if len(delta) != len(want) {
			t.Fatalf("update %d %v: engine emits %d results, reference %d", i, u, len(delta), len(want))
		}
		for j := range want {
			if delta[j] != want[j] {
				t.Fatalf("update %d %v: engine result %v, reference %v", i, u, delta[j], want[j])
			}
		}
	}
	snap := en.Snapshot()
	work = fmt.Sprint(snap.Outputs, snap.Work, snap.Reopts, snap.SkippedReopts)
	for rel := 0; rel < q.N(); rel++ {
		win := sortedWindow(en.Exec().Store(rel).All())
		if ref != nil {
			if want := sortedWindow(ref.wins[rel]); win != want {
				t.Fatalf("relation %d window contents diverge:\nengine    %s\nreference %s", rel, win, want)
			}
		}
		windows = append(windows, win)
	}
	return results, work, windows
}

func checkFilteredMatchesUnfiltered(t testing.TB, cfg core.Config, n, window int, domain, seed int64) {
	t.Helper()
	q := diffQuery(t)
	ups := diffUpdates(q, n, window, domain, seed)
	res, work, wins := diffReplay(t, q, cfg, ups, &nestedLoop{})
	resAgain, workAgain, winsAgain := diffReplay(t, q, cfg, ups, nil)
	if len(res) != len(resAgain) {
		t.Fatalf("%d results on the first replay, %d on the second", len(res), len(resAgain))
	}
	for i := range res {
		if res[i] != resAgain[i] {
			t.Fatalf("result %d diverges between replays: %s, then %s", i, res[i], resAgain[i])
		}
	}
	if work != workAgain {
		t.Fatalf("cost-charge totals diverge between replays: %q, then %q", work, workAgain)
	}
	for rel := range wins {
		if wins[rel] != winsAgain[rel] {
			t.Fatalf("relation %d window contents diverge between replays:\n%s\n%s",
				rel, wins[rel], winsAgain[rel])
		}
	}
}

func TestFilteredEngineMatchesUnfiltered(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    core.Config
		domain int64
	}{
		// Small ReoptInterval exercises the adaptivity loop many times
		// inside each run.
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
// shape; any divergence from the reference or between replays is a correctness
// bug (a lost or invented match, or a nondeterministic charge).
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
