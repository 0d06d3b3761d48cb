package main

import (
	"math"
	"time"

	"acache/internal/bloom"
	"acache/internal/cache"
	"acache/internal/cost"
	"acache/internal/filter"
	"acache/internal/relation"
	"acache/internal/tuple"
)

// Primitive probes time a module's own structure in isolation: the harness
// builds it with the module's exported constructor, sizes it like the
// workload's hub relation window and keys it with the workload's own tuples,
// then times blocks of calls (two clock reads per block, fastest of
// probeReps passes). They supply what cannot be split from outside a running
// engine; they miss whatever the engine's access pattern does to the CPU's
// caches, which is why they sit beside the ladder and not in its place.
const (
	probeCalls = 200_000
	probeReps  = 3
)

// probeSink receives what the probes visited so the calls cannot be elided.
var probeSink int

// timeBlocks runs blocks rounds of an untimed before(b) and a timed body(b)
// making per calls, probeReps times over (reset, if any, first), and returns
// the fastest pass's nanoseconds per call.
func timeBlocks(blocks, per int, reset func(), before, body func(b int)) float64 {
	best := math.MaxFloat64
	for rep := 0; rep < probeReps; rep++ {
		if reset != nil {
			reset()
		}
		var total time.Duration
		for b := 0; b < blocks; b++ {
			if before != nil {
				before(b)
			}
			t0 := time.Now()
			body(b)
			total += time.Since(t0)
		}
		best = min(best, float64(total)/float64(blocks*per))
	}
	return best
}

// hubTuples returns the first n tuples the op stream appends to relation 0.
func hubTuples(ops []op, n int) []tuple.Tuple {
	out := make([]tuple.Tuple, 0, n)
	for i := range ops {
		if o := &ops[i]; o.idx == 0 {
			out = append(out, tuple.Tuple(o.vals[:o.n]).Clone())
			if len(out) == n {
				break
			}
		}
	}
	return out
}

// probePrimitives fills m with the (P) metrics of w.
func probePrimitives(w workload, ops []op, m map[string]float64) {
	hub := w.rels[0]
	window := hub.window
	half := max(window/2, 1)
	ts := hubTuples(ops, window+probeCalls)
	blocks := (len(ts) - window) / half
	if blocks < 2 {
		return // a smoke-test stream too short to probe; the metrics stay zero
	}
	domain := w.streams[0].domain
	sunk := 0 // keeps probe results observable

	// relation: occupancy swings between 1 and 1.5 windows — half a window
	// goes in, then the oldest half a window comes out.
	var s *relation.Store
	var ix *relation.HashIndex
	fresh := func() {
		s = relation.NewStore(0, tuple.RelationSchema(0, hub.attrs...), &cost.Meter{})
		ix = s.CreateIndex(hub.attrs[0])
		for _, t := range ts[:window] {
			s.Insert(t)
		}
	}
	insertBlock := func(b int) {
		for _, t := range ts[window+b*half : window+(b+1)*half] {
			s.Insert(t)
		}
	}
	deleteBlock := func(b int) {
		for _, t := range ts[b*half : (b+1)*half] {
			s.Delete(t)
		}
	}
	m["relation.insert_ns"] = timeBlocks(blocks, half, fresh, func(b int) {
		if b > 0 {
			deleteBlock(b - 1)
		}
	}, insertBlock)
	m["relation.delete_ns"] = timeBlocks(blocks, half, fresh, insertBlock, deleteBlock)

	fresh()
	visit := func(tuple.Tuple) { sunk++ }
	key := make([]tuple.Value, 1)
	m["relation.probe_hit_ns"] = timeBlocks(1, probeCalls, nil, nil, func(int) {
		for i := 0; i < probeCalls; i++ {
			key[0] = ts[i%window][0]
			s.ProbeEach(ix, key, visit)
		}
	})
	m["relation.probe_miss_ns"] = timeBlocks(1, probeCalls, nil, nil, func(int) {
		for i := 0; i < probeCalls; i++ {
			key[0] = domain + int64(i) // never drawn by the generator
			s.ProbeEach(ix, key, visit)
		}
	})
	scans := max(probeCalls/window, 1)
	m["relation.scan_ns_per_tuple"] = timeBlocks(1, scans*window, nil, nil, func(int) {
		for i := 0; i < scans; i++ {
			s.Scan(func(tuple.Tuple) bool { sunk++; return true })
		}
	})

	// cache: one 8-byte key per slot, direct-mapped, a window of buckets —
	// the shape join.NewInstance gives a single-attribute cache.
	keys := make([][]byte, window)
	absent := make([][]byte, window)
	for i := range keys {
		keys[i] = tuple.AppendKeyValues(nil, []tuple.Value{int64(i)})
		absent[i] = tuple.AppendKeyValues(nil, []tuple.Value{domain + int64(i)})
	}
	c := cache.New(window, 8, -1, &cost.Meter{})
	entry := []tuple.Tuple{ts[0]}
	rounds := max(probeCalls/window, 1)
	m["cache.create_ns"] = timeBlocks(rounds, window, nil, nil, func(int) {
		for _, k := range keys {
			c.Create(tuple.Key(k), entry)
		}
	})
	probeAll := func(ks [][]byte) func(int) {
		return func(int) {
			for _, k := range ks {
				if _, ok := c.ProbeBytes(k); ok {
					sunk++
				}
			}
		}
	}
	m["cache.probe_hit_ns"] = timeBlocks(rounds, window, nil, nil, probeAll(keys))
	m["cache.probe_miss_ns"] = timeBlocks(rounds, window, nil, nil, probeAll(absent))
	insertAll := func(int) {
		for _, k := range keys {
			c.InsertBytes(k, ts[1])
		}
	}
	deleteAll := func(int) { // a no-op on entries that do not hold ts[1]
		for _, k := range keys {
			c.DeleteBytes(k, ts[1])
		}
	}
	m["cache.insert_ns"] = timeBlocks(rounds, window, nil, deleteAll, insertAll)
	m["cache.delete_ns"] = timeBlocks(rounds, window, nil, insertAll, deleteAll)

	// bloom: the profiler's shadow estimators add one hash pair per probed
	// key to a one-hash filter of a few bits per window slot.
	bf := bloom.New(8*window, 1)
	m["bloom.add_ns"] = timeBlocks(1, probeCalls, nil, nil, func(int) {
		for i := 0; i < probeCalls; i++ {
			h := tuple.HashValues(ts[i%len(ts)], 0)
			if bf.AddHash(h, h>>17|h<<47) {
				sunk++
			}
		}
	})

	// filter: the cuckoo filter in front of every index and cache table.
	fl := filter.New(2 * window)
	hashes := make([]uint64, window)
	for i := range hashes {
		hashes[i] = tuple.HashValues([]tuple.Value{int64(i)}, 0)
	}
	m["filter.insert_ns"] = timeBlocks(rounds, window, nil, func(int) {
		for _, h := range hashes {
			fl.Delete(h)
		}
	}, func(int) {
		for _, h := range hashes {
			fl.Insert(h)
		}
	})
	m["filter.lookup_ns"] = timeBlocks(rounds, window, nil, nil, func(b int) {
		for _, h := range hashes {
			if fl.MayContainHash(h ^ uint64(b&1)) { // odd rounds miss
				sunk++
			}
		}
	})
	probeSink += sunk
}
