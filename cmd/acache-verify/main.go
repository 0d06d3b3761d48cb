// Command acache-verify fuzzes the engine against the naive recomputation
// oracle: random queries, random pipeline orderings, controllers (adaptive,
// paused and resumed, MJoin, pinned) and adaptivity settings, random
// insert/delete streams — every update's
// result-delta multiset compared. It is the repository's standalone
// correctness gate (the same oracle the test suite uses), usable for long
// soak runs:
//
//	acache-verify -trials 200 -updates 2000 -seed 1
//
// Exit status is nonzero on the first divergence, with a reproduction line.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"acache/internal/core"
	"acache/internal/join"
	"acache/internal/oracle"
	"acache/internal/ordering"
	"acache/internal/planner"
	"acache/internal/profiler"
	"acache/internal/query"
	"acache/internal/stream"
	"acache/internal/tuple"
)

func buildQuery(rng *rand.Rand) *query.Query {
	// 3–5 relations; a random connected equijoin graph: one class on A, A
	// plus a B class, or a chain with one class per link.
	n := 3 + rng.Intn(3)
	schemas := make([]*tuple.Schema, n)
	var preds []query.Pred
	twoAttr := rng.Intn(2) == 0
	links := !twoAttr && rng.Intn(2) == 0
	for i := 0; i < n; i++ {
		// Every relation carries a C attribute that joins nothing — free
		// for residual theta predicates.
		if links || twoAttr && i%2 == 1 {
			schemas[i] = tuple.RelationSchema(i, "A", "B", "C")
		} else {
			schemas[i] = tuple.RelationSchema(i, "A", "C")
		}
	}
	// A spanning chain keeps the graph connected: on A, or R(i−1).B =
	// R(i).A, whose classes a random ordering can step across, joining a
	// relation that shares no class with its prefix (a cross product).
	for i := 1; i < n; i++ {
		left := tuple.Attr{Rel: i - 1, Name: "A"}
		if links {
			left.Name = "B"
		}
		preds = append(preds, query.Pred{Left: left, Right: tuple.Attr{Rel: i, Name: "A"}})
	}
	// Occasionally connect B attributes into their own class.
	if twoAttr {
		var bs []int
		for i := 1; i < n; i += 2 {
			bs = append(bs, i)
		}
		for k := 1; k < len(bs); k++ {
			preds = append(preds, query.Pred{
				Left:  tuple.Attr{Rel: bs[k-1], Name: "B"},
				Right: tuple.Attr{Rel: bs[k], Name: "B"},
			})
		}
	}
	// Occasionally add residual theta predicates between adjacent chain
	// relations' C attributes (which join nothing, so the filters bite).
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
		panic(err)
	}
	return q
}

// drawOrdering returns nil, the engine's join-graph ordering, or half the
// time a uniformly random valid ordering.
func drawOrdering(rng *rand.Rand, n int) planner.Ordering {
	if rng.Intn(2) == 0 {
		return nil
	}
	ord := make(planner.Ordering, n)
	for i := range ord {
		for _, r := range rng.Perm(n) {
			if r != i {
				ord[i] = append(ord[i], r)
			}
		}
	}
	return ord
}

func trial(seed int64, updates int, verbose bool) error {
	rng := rand.New(rand.NewSource(seed))
	q := buildQuery(rng)
	cfg := core.Config{
		ReoptInterval: 100 + rng.Intn(400),
		GCQuota:       rng.Intn(8),
		BudgetAware:   rng.Intn(3) == 0,
		Selection:     core.SelectionMode(rng.Intn(4)),
		MemoryBudget:  -1,
		Seed:          seed,
		// Short statistics windows: at the defaults (W=10, 50-update rate
		// spans, Wd=100) no estimate is ready within a 1500-update trial and
		// no trial ever adopts a cache; with these, 20 of the default 50 do.
		Profiler: profiler.Config{W: 4, RateSpan: 10, Wd: 20},
	}
	if rng.Intn(4) == 0 {
		cfg.MemoryBudget = 1024 * (1 + rng.Intn(8))
	}
	ord := drawOrdering(rng, q.N())
	// The controller (DESIGN.md §23): mostly adaptive, else a plain MJoin or
	// a plan pinned to one candidate cache. Half the adaptive trials pause
	// caching over a drawn stretch of updates, so the controller is set
	// aside and put back mid-stream.
	ctl, pauseAt, resumeAt := "adaptive", -1, -1
	switch rng.Intn(5) {
	case 0:
		ctl, cfg.DisableCaching = "mjoin", true
	case 1:
		full := ord
		if full == nil {
			full = ordering.FromJoinGraph(q)
		}
		if cands := planner.Candidates(q, full); len(cands) > 0 {
			i := rng.Intn(len(cands))
			ctl, cfg.ForcedCaches = "pinned", cands[i:i+1]
		}
	default:
		if rng.Intn(2) == 0 {
			pauseAt = rng.Intn(updates)
			resumeAt = pauseAt + rng.Intn(updates-pauseAt)
		}
	}
	en, err := core.NewEngine(q, ord, cfg)
	if err != nil {
		return fmt.Errorf("seed %d: NewEngine: %v", seed, err)
	}
	var got []tuple.Tuple
	wrongSign := false
	var cur stream.Update
	peak := 0 // most caches in use at once
	en.OnResult(func(insert bool, result []tuple.Value) {
		got = append(got, tuple.Tuple(result).Clone()) // the row is the engine's buffer
		if insert != (cur.Op == stream.Insert) {
			wrongSign = true
		}
	})
	o := oracle.New(q)
	live := make([][]tuple.Tuple, q.N())
	domain := int64(3 + rng.Intn(8))
	for i := 0; i < updates; i++ {
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
		u.Seq = uint64(i)
		if i == pauseAt {
			en.SetCachingPaused(true)
		}
		if i == resumeAt {
			en.SetCachingPaused(false)
		}
		if k := len(en.UsedCaches()); k > peak {
			peak = k
		}
		cur, got = u, got[:0]
		n := en.Process(u)
		want := o.Process(u)
		if n != len(got) || wrongSign || !oracle.MultisetEqual(oracle.Multiset(got), oracle.Multiset(want)) {
			return fmt.Errorf("seed %d update %d (%v): engine counted %d deltas and emitted %v (sign mismatch: %v), oracle %v\ncontroller: %s (pause window [%d, %d))\nconfig: %+v\nplan: %+v",
				seed, i, u, n, got, wrongSign, want, ctl, pauseAt, resumeAt, cfg, en.Plan())
		}
	}
	if verbose {
		re, sk := en.Reopts()
		fmt.Printf("seed %d: n=%d %s ok (pause window [%d, %d), %d reopts, %d skipped, %d caches at peak, multi-column index %v)\n",
			seed, q.N(), ctl, pauseAt, resumeAt, re, sk, peak, multiColumnIndex(q, en.Plan().Pipelines))
	}
	return nil
}

// multiColumnIndex reports whether the engine's pipelines key a relation
// index on two or more columns (an index name joins its attributes with a
// comma). A one-column index confirms a match on its hash alone and a wider
// one compares columns, so such a trial checks that path against the oracle.
func multiColumnIndex(q *query.Query, ord planner.Ordering) bool {
	for rel := 0; rel < q.N(); rel++ {
		if strings.Contains(join.IndexSignature(q, ord, nil, rel), ",") {
			return true
		}
	}
	return false
}

func main() {
	trials := flag.Int("trials", 50, "number of randomized trials")
	updates := flag.Int("updates", 1500, "updates per trial")
	seed := flag.Int64("seed", 1, "base seed")
	verbose := flag.Bool("v", false, "per-trial summaries")
	flag.Parse()

	for i := 0; i < *trials; i++ {
		if err := trial(*seed+int64(i), *updates, *verbose); err != nil {
			fmt.Fprintln(os.Stderr, "FAIL:", err)
			os.Exit(1)
		}
	}
	fmt.Printf("ok: %d trials × %d updates, engine ≡ oracle\n", *trials, *updates)
}
