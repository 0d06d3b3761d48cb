package core

import (
	"math/rand"
	"testing"

	"acache/internal/stream"
	"acache/internal/tuple"
)

// filterFlips drives en with updates from next and counts, per relation, how
// often the store's filter knob changed state.
func filterFlips(en *Engine, n int, next func() stream.Update) []int {
	rels := en.q.N()
	flips := make([]int, rels)
	on := make([]bool, rels)
	for r := range on {
		on[r] = en.exec.Store(r).FiltersEnabled()
	}
	for i := 0; i < n; i++ {
		en.Process(next())
		for r := range on {
			if now := en.exec.Store(r).FiltersEnabled(); now != on[r] {
				on[r] = now
				flips[r]++
			}
		}
	}
	return flips
}

// TestFilterKnobDoesNotFlap runs a plain MJoin over a five-way star whose
// later pipeline steps see a few dozen probes per MonitorInterval — too few
// for one interval's gain : overhead ratio to mean anything. Each enable is a
// whole-table rebuild inside one update, so a store may settle, not flap.
func TestFilterKnobDoesNotFlap(t *testing.T) {
	const window, domain, updates = 5_000, 10_000, 300_000
	q := starOnA(t, 5)
	en, err := NewEngine(q, nil, Config{DisableCaching: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	wins := make([]*stream.SlidingWindow, q.N())
	for r := range wins {
		wins[r] = stream.NewSlidingWindow(window)
	}
	var pending []stream.Update
	rel, appends := 0, 0
	cur := make([]tuple.Value, q.N())
	next := func() stream.Update {
		if len(pending) == 0 {
			// R2..R4 repeat each value five times in a row, as nway5_mjoin does.
			if rel < 2 || appends/q.N()%5 == 0 {
				cur[rel] = rng.Int63n(domain)
			}
			appends++
			pending = wins[rel].AppendInto(tuple.Tuple{cur[rel]}, pending)
			for i := range pending {
				pending[i].Rel = rel
			}
			rel = (rel + 1) % q.N()
		}
		u := pending[0]
		pending = pending[1:]
		return u
	}
	for r, n := range filterFlips(en, updates, next) {
		t.Logf("R%d: %d flips, filters on at the end: %v", r, n, en.exec.Store(r).FiltersEnabled())
		if n > 3 {
			t.Errorf("R%d's filter knob flipped %d times in %d updates", r, n, updates)
		}
	}
}

// TestFilterKnobFollowsTraffic: waiting for evidence must not make the knob
// deaf. R1 holds the even keys and never changes; R0's inserts probe it, first
// with odd keys only (every probe a miss the filter answers: it earns its
// keep), then with even keys only (every probe a hit: pure overhead), then
// odd again. The first evidence window after a change may straddle it; the
// second cannot, so the store switches within two. The ProcessBatch arm feeds
// the pairs as runs of 64 inserts then 64 deletes — the shape every shard
// worker and AppendBatch produce — and must switch within one batch more.
func TestFilterKnobFollowsTraffic(t *testing.T) {
	t.Run("Process", func(t *testing.T) { checkFilterKnobFollows(t, 1) })
	t.Run("ProcessBatch", func(t *testing.T) { checkFilterKnobFollows(t, 64) })
}

func checkFilterKnobFollows(t *testing.T, batch int64) {
	const keys = 1_000
	q := starOnA(t, 2)
	en, err := NewEngine(q, nil, Config{DisableCaching: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < keys; k++ {
		en.Process(stream.Update{Op: stream.Insert, Rel: 1, Tuple: tuple.Tuple{2 * k}})
	}
	s := en.exec.Store(1)
	var ups []stream.Update
	// until feeds R0 insert+delete pairs — two probes of R1 each, no growth —
	// with keys of the given parity until R1's knob reads want.
	until := func(want bool, parity int64) {
		t.Helper()
		limit := int64(filterEvidence + en.cfg.MonitorInterval) // pairs: two windows of probes, the cadence
		if batch > 1 {
			limit += batch // a batch of pairs lands whole
		}
		for i := int64(0); s.FiltersEnabled() != want; i += batch {
			if i > limit {
				t.Fatalf("filters still %v after %d probe pairs of parity %d", !want, i, parity)
			}
			if batch == 1 {
				u := tuple.Tuple{2*(i%keys) + parity}
				en.Process(stream.Update{Op: stream.Insert, Rel: 0, Tuple: u})
				en.Process(stream.Update{Op: stream.Delete, Rel: 0, Tuple: u})
				continue
			}
			ups = ups[:0]
			for _, op := range []stream.Op{stream.Insert, stream.Delete} {
				for j := i; j < i+batch; j++ {
					ups = append(ups, stream.Update{Op: op, Rel: 0, Tuple: tuple.Tuple{2*(j%keys) + parity}})
				}
			}
			en.ProcessBatch(ups)
		}
	}
	until(true, 1)  // misses only: on from the start, or soon
	until(false, 0) // hits only
	until(true, 1)
	until(false, 0)
}
