package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
)

// engineKind selects which public constructor a workload goes through.
type engineKind int

const (
	serialEngine  engineKind = iota // Query.Build
	shardedEngine                   // Query.BuildSharded, AppendBatch / Append+Flush
	durableEngine                   // Query.BuildDurable, SyncWAL inside the stream
)

// relSpec declares one relation of a workload's query.
type relSpec struct {
	name   string
	attrs  []string
	window int
}

// streamSpec says how one relation's tuples are drawn. Every attribute of
// the relation follows the same rule with its own offset / draw.
type streamSpec struct {
	cyclic bool // counter modulo domain (true) or uniform draws (false)
	domain int64
	mult   int // each value is repeated mult times in a row
	rate   int // appends per interleave block
}

// phaseSpec overrides stream rates and multiplicities for a stretch of the
// measure stream (nway7_drift).
type phaseSpec struct {
	length int // appends per phase
	hot    int // how many consecutive streams are "hot" in a phase
	rate   int
	mult   int
}

// workload is one named set of inputs. Nothing below the generator sees the
// name: the engine receives relation names, tuples and an Options value.
type workload struct {
	name string
	why  string
	// listed says the workload is in BENCHMARK.json, i.e. among the runs the
	// driver makes and gates on. The contract's time limit for all runs
	// leaves room for four workloads at the run length this host needs
	// (README, "Estimators"); the others run by name and in `go run .`.
	listed bool

	rels    []relSpec
	joins   [][2]string // "Rel.Attr" pairs, hub relation declared first
	streams []streamSpec
	phases  *phaseSpec
	noIndex []string
	noCache bool // Options.DisableCaching
	kind    engineKind

	// settle is the length of an equal-rate stretch the stream starts with
	// (inside the warm-up), for a mix on which the engine's first cache
	// selection would otherwise depend on the seed.
	settle  int
	warmup  int // untimed appends after Build, counted in setup_s
	measure int // appends in the measure stream of a throughput rep
	latency int // requests in a latency rep
	shards  int // ShardOptions.Shards (shard2_batch)
	runLen  int // same-relation run length (shard2_batch batches); 0 = 1
	syncGap int // SyncWAL every syncGap appends (durable_wal)
	logged  int // appends logged between checkpoint and crash (durable_wal)
	ladder  int // appends per pass of the traced run (API vs composed, ladder rungs)
	// ladderWarm is the warm-up of a ladder rung. It is shorter than warmup
	// where a rung without caches is slow (the scan workloads): enough to
	// fill every window and let the adaptive rung pick its caches.
	ladderWarm int
}

// op is one append: relation index and values. It holds no pointers, so the
// multi-million-op slices cost the garbage collector nothing to scan; the
// name the public API wants is looked up in a table resolved before the
// clock starts (workload.names).
type op struct {
	vals [2]int64
	n    uint8
	idx  uint8
}

// names returns the relation-name table indexed by op.idx.
func (w workload) names() []string {
	out := make([]string, len(w.rels))
	for i, r := range w.rels {
		out[i] = r.name
	}
	return out
}

// segmentLen is the appends per timed throughput segment: short, so that a
// disturbance (a collection, a preemption) spoils few segments of a rep and
// the per-segment minimum over reps sheds it. The sharded engine's segments
// end in a Flush, which drains the pipeline, so they are longer.
const (
	segmentLen      = 2_000
	shardSegmentLen = 12_800
)

func (w workload) segment() int {
	if w.kind == shardedEngine {
		return shardSegmentLen
	}
	return segmentLen
}

func star3(name, why string, rates [3]int, noIndex []string) workload {
	return workload{
		name: name, why: why,
		rels: []relSpec{
			{"S", []string{"A", "B"}, 1000},
			{"R", []string{"A"}, 1000},
			{"T", []string{"B"}, 1000},
		},
		joins: [][2]string{{"R.A", "S.A"}, {"S.B", "T.B"}},
		streams: []streamSpec{
			{cyclic: true, domain: 1000, mult: 1, rate: rates[1]},
			{cyclic: true, domain: 1000, mult: 1, rate: rates[0]},
			{cyclic: true, domain: 1000, mult: 5, rate: rates[2]},
		},
		noIndex: noIndex,
		warmup:  200_000, measure: 1_000_000, latency: 1_000_000, ladder: 400_000, ladderWarm: 100_000,
	}
}

func nway(name, why string, n, window int, domain int64) workload {
	w := workload{name: name, why: why}
	for i := 0; i < n; i++ {
		w.rels = append(w.rels, relSpec{fmt.Sprintf("R%d", i), []string{"A"}, window})
		mult := 1
		if i >= 2 && i <= 4 {
			mult = 5
		}
		w.streams = append(w.streams, streamSpec{domain: domain, mult: mult, rate: 1})
		if i > 0 {
			w.joins = append(w.joins, [2]string{"R0.A", fmt.Sprintf("R%d.A", i)})
		}
	}
	return w
}

// workloads returns the seven workloads in report order; four of them are
// listed in BENCHMARK.json. The hub relation is
// always declared first: Build has no ordering argument and the initial
// ordering is ascending-index, so any other declaration order gives some
// pipeline a cross product (see README, "Declaration order").
func workloads() []workload {
	scan := star3("star3_scan",
		"expensive miss path (nested-loop scan of S): the R-S cache in T's pipeline does most of the work and is read-mostly; caching beats MJoin several-fold",
		[3]int{1, 1, 5}, []string{"S.B"})
	scan.ladder, scan.ladderWarm = 60_000, 40_000
	scan.listed = true

	churn := star3("star3_scan_churn",
		"same cache used differently: maintenance from R and S appends outnumbers probes 4:1, so a faster probe bought with a slower insert/delete shows",
		[3]int{2, 2, 1}, []string{"S.B"})
	churn.ladder, churn.ladderWarm = 60_000, 40_000
	// The engine's first selection comes after about 5 000 appends. On this
	// mix T's window is barely full by then, and on two seeds in twenty the
	// engine starts with self-maintained R-T and S-T caches, takes three times
	// as long to warm up and keeps 1.8 MB more heap for the rest of the run: a
	// start-up transient of the program that makes setup_s, heap_mb and
	// throughput_tps bimodal over seeds. Starting with 10 000 equal-rate
	// appends avoided it on thirty seeds out of thirty (3 000 made it worse:
	// ten in twenty). The transient itself is material for a later issue.
	churn.settle = 10_000

	hit := star3("star3_hit",
		"the paper's default point, all joins indexed: a hit saves about what profiling and probing cost, so cache/profiler overhead decides A-Caching vs MJoin",
		[3]int{1, 1, 5}, nil)
	hit.listed = true

	mjoin := nway("nway5_mjoin",
		"bypass for cache, profiler and re-optimizer (DisableCaching): only windows, relation stores, filters and the join executor run, on a working set far beyond L2",
		5, 50_000, 100_000)
	mjoin.noCache = true
	mjoin.listed = true
	mjoin.warmup, mjoin.measure, mjoin.latency = 400_000, 1_000_000, 1_000_000
	mjoin.ladder, mjoin.ladderWarm = 300_000, 300_000

	drift := nway("nway7_drift",
		"re-optimizer, profiler, shadow estimators and selection on the critical path: rates and multiplicities rotate every 100k appends, caches are added and dropped",
		7, 200, 400)
	for i := range drift.streams {
		drift.streams[i].mult = 1
	}
	drift.phases = &phaseSpec{length: 100_000, hot: 3, rate: 4, mult: 5}
	drift.listed = true
	drift.warmup, drift.measure, drift.latency = 100_000, 1_000_000, 1_000_000
	drift.ladder, drift.ladderWarm = 400_000, 100_000

	shard := nway("shard2_batch",
		"the only workload through internal/shard (routing, mailboxes, flush barrier) and the batch executor: AppendBatch runs of 64 rows, Append+Flush round trips",
		5, 1000, 2000)
	shard.kind = shardedEngine
	shard.shards = 2
	shard.runLen = 64
	shard.warmup, shard.measure, shard.latency = 100_000, 1_000_000, 400_000
	shard.ladder, shard.ladderWarm = 400_000, 50_000

	dur := star3("durable_wal",
		"star3_hit on BuildDurable: WAL framing/CRC, tier bookkeeping, SyncWAL in the stream, checkpoint and crash recovery in set-up; star3_hit is its in-memory twin",
		[3]int{1, 1, 5}, nil)
	dur.kind = durableEngine
	dur.syncGap = 5_000
	dur.logged = 200_000

	return []workload{scan, churn, hit, mjoin, drift, shard, dur}
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// mixSeed derives the engine's Options.Seed from -seed so the raw flag value
// never reaches the program.
func mixSeed(seed int64) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 32
	return int64(x >> 1)
}

// generate draws n appends of w's stream from seed. The same (workload,
// seed, n) always yields the same ops; a longer n extends a shorter one.
//
// Interleave: the stream is a sequence of blocks, each holding every relation
// rate-many times in an order shuffled from the seed, so the order is random
// but the streams never drift apart — over a million appends a free random
// interleave lets the cyclic counters of two relations wander hundreds of
// values relative to each other, which makes the join fan-out (and with it
// every metric) a property of the seed instead of the workload.
//
// Settling: the first w.settle appends deal every relation at the same rate,
// whatever the workload's mix.
//
// Values: a cyclic attribute counts up modulo its domain from an offset drawn
// once per attribute name (R.A and S.A share one, S.B and T.B another — "the
// same domain in the same cyclic order", Section 7.2); a uniform attribute is
// drawn afresh. Either way a value is repeated mult times in a row.
func (w workload) generate(seed int64, n int) []op {
	rng := rand.New(rand.NewSource(seed))
	nrel := len(w.rels)
	offsets := map[string]int64{}
	cur := make([][]int64, nrel)
	count := make([]int, nrel) // tuples drawn so far per relation
	for r, rel := range w.rels {
		cur[r] = make([]int64, len(rel.attrs))
		for _, a := range rel.attrs {
			if _, ok := offsets[a]; !ok {
				offsets[a] = rng.Int63n(w.streams[r].domain)
			}
		}
	}
	rates := make([]int, nrel)
	mults := make([]int, nrel)
	setPhase := func(k int) {
		for r, s := range w.streams {
			rates[r], mults[r] = s.rate, s.mult
		}
		if w.phases != nil {
			for j := 0; j < w.phases.hot; j++ {
				r := (k + j) % nrel
				rates[r], mults[r] = w.phases.rate, w.phases.mult
			}
		}
	}
	var block []int // relations still to be scheduled in the current block
	refill := func(equal bool) {
		block = block[:0]
		for r, rate := range rates {
			if equal {
				rate = 1
			}
			for i := 0; i < rate; i++ {
				block = append(block, r)
			}
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
	}
	phaseLen := math.MaxInt
	if w.phases != nil {
		phaseLen = w.phases.length
	}
	phase := -1
	runLen := max(w.runLen, 1)
	ops := make([]op, 0, n)
	for len(ops) < n {
		if k := len(ops) / phaseLen; k != phase {
			phase = k
			setPhase(k)
			block = block[:0]
		}
		if len(block) == 0 {
			refill(len(ops) < w.settle)
		}
		r := block[len(block)-1]
		block = block[:len(block)-1]
		s := w.streams[r]
		for k := 0; k < runLen && len(ops) < n; k++ {
			o := op{n: uint8(len(w.rels[r].attrs)), idx: uint8(r)}
			fresh := count[r]%mults[r] == 0
			for a, attr := range w.rels[r].attrs {
				if fresh {
					if s.cyclic {
						cur[r][a] = (int64(count[r]/mults[r]) + offsets[attr]) % s.domain
					} else {
						cur[r][a] = rng.Int63n(s.domain)
					}
				}
				o.vals[a] = cur[r][a]
			}
			count[r]++
			ops = append(ops, o)
		}
	}
	return ops
}

// streamHash fingerprints an op stream (order-dependent), for the
// determinism tests and the JSON stamp.
func streamHash(ops []op) uint64 {
	h := fnv.New64a()
	var b [17]byte
	for _, o := range ops {
		b[0] = o.idx
		for a := 0; a < 2; a++ {
			v := uint64(o.vals[a])
			for i := 0; i < 8; i++ {
				b[1+a*8+i] = byte(v >> (8 * i))
			}
		}
		h.Write(b[:])
	}
	return h.Sum64()
}
