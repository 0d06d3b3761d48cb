package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"acache"
	"acache/internal/cost"
)

// perLayer lists the metrics of single modules. Sources: (T) spans and timed
// calls of the traced run, (P) primitive probes, (C) counters the program
// already exports. README has the table of what each should move.
var perLayer = []metricDef{
	{Name: "acache.append_self_ns", Unit: "ns", Better: "lower"},
	{Name: "acache.latency_p9999_ns", Unit: "ns", Better: "lower"},
	{Name: "acache.results_per_append", Unit: "count", Better: "lower"},
	{Name: "acache.bytes_per_append", Unit: "B", Better: "lower"},
	{Name: "stream.window_ns_per_append", Unit: "ns", Better: "lower"},
	{Name: "stream.updates_per_append", Unit: "count", Better: "lower"},
	{Name: "core.process_ns_per_update", Unit: "ns", Better: "lower"},
	{Name: "core.overhead_ns_per_update", Unit: "ns", Better: "lower"},
	{Name: "core.adaptive_delta_ns_per_update", Unit: "ns", Better: "lower"},
	{Name: "core.speedup_vs_mjoin", Unit: "ratio", Better: "higher"},
	{Name: "core.reopts", Unit: "count", Better: "lower"},
	{Name: "core.skipped_reopts", Unit: "count", Better: "higher"},
	{Name: "core.candidate_rescores", Unit: "count", Better: "lower"},
	{Name: "core.reopt_ns_per_reopt", Unit: "ns", Better: "lower"},
	{Name: "core.reopt_ns_per_update", Unit: "ns", Better: "lower"},
	{Name: "join.mjoin_ns_per_update", Unit: "ns", Better: "lower"},
	{Name: "join.step_inputs_per_update", Unit: "count", Better: "lower"},
	{Name: "join.outputs_per_update", Unit: "count", Better: "lower"},
	{Name: "join.run_ns_per_update", Unit: "ns", Better: "lower"},
	{Name: "join.run_len_mean", Unit: "count", Better: "higher"},
	{Name: "relation.insert_ns", Unit: "ns", Better: "lower"},
	{Name: "relation.delete_ns", Unit: "ns", Better: "lower"},
	{Name: "relation.probe_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "relation.probe_miss_ns", Unit: "ns", Better: "lower"},
	{Name: "relation.scan_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "relation.window_bytes", Unit: "B", Better: "lower"},
	{Name: "relation.filtered_probes_per_update", Unit: "count", Better: "higher"},
	{Name: "relation.filter_fp_per_update", Unit: "count", Better: "lower"},
	{Name: "cache.probe_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.probe_miss_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.insert_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.delete_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.create_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "cache.used_count", Unit: "count", Better: "higher"},
	{Name: "cache.entries", Unit: "count", Better: "higher"},
	{Name: "cache.bytes", Unit: "B", Better: "lower"},
	{Name: "profiler.sampled_share", Unit: "ratio", Better: "lower"},
	{Name: "profiler.profiled_ns_per_update", Unit: "ns", Better: "lower"},
	{Name: "bloom.add_ns", Unit: "ns", Better: "lower"},
	{Name: "filter.lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "filter.insert_ns", Unit: "ns", Better: "lower"},
	{Name: "filter.bytes", Unit: "B", Better: "lower"},
	{Name: "shard.route_ns_per_update", Unit: "ns", Better: "lower"},
	{Name: "shard.flush_wait_share", Unit: "ratio", Better: "lower"},
	{Name: "shard.roundtrip_ns", Unit: "ns", Better: "lower"},
	{Name: "shard.skew", Unit: "ratio", Better: "lower"},
	{Name: "shard.speedup_vs_p1", Unit: "ratio", Better: "higher"},
	{Name: "durable.log_ns_per_append", Unit: "ns", Better: "lower"},
	{Name: "durable.sync_ns", Unit: "ns", Better: "lower"},
	{Name: "durable.wal_bytes_per_append", Unit: "B", Better: "lower"},
	{Name: "durable.checkpoint_s", Unit: "s", Better: "lower"},
	{Name: "durable.recover_s", Unit: "s", Better: "lower"},
	{Name: "durable.replay_tps", Unit: "1/s", Better: "higher"},
	{Name: "tier.hot_bytes", Unit: "B", Better: "lower"},
	{Name: "tier.cold_bytes", Unit: "B", Better: "lower"},
	{Name: "tier.promotions", Unit: "count", Better: "lower"},
	{Name: "tier.demotions", Unit: "count", Better: "lower"},
	{Name: "cost.units_per_append", Unit: "count", Better: "lower"},
	{Name: "cost.ns_per_unit", Unit: "ns", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.composed_vs_api", Unit: "ratio", Better: "higher"},
	{Name: "trace.span_cost_ns", Unit: "ns", Better: "lower"},
	{Name: "host.rep_spread", Unit: "ratio", Better: "lower"},
	{Name: "host.gomaxprocs", Unit: "count", Better: "higher"},
}

// layerSegment is the appends per timed segment of the traced run's
// interleaved passes; engines take turns segment by segment so a slow spell
// of the host falls on all of them.
const layerSegment = 10_000

// layers is the outcome of one traced run of one workload.
type layers struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	TraceFile string             `json:"trace_file"`
	Metrics   map[string]float64 `json:"metrics"`
	Problems  []string           `json:"problems,omitempty"`
}

func (r *layers) problem(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// runLayers is the traced run: never mixed with the end-to-end numbers, it
// drives the harness-composed engine with spans, the differential ladder,
// the primitive probes and, for the sharded and durable workloads, the real
// engine with spans around the harness's own calls.
func runLayers(w workload, seed int64, seconds float64, outDir string) (*layers, error) {
	s, err := prepare(w, seed)
	if err != nil {
		return nil, err
	}
	res := &layers{Workload: w.name, Seed: seed, Correct: true, Metrics: map[string]float64{}}
	for _, d := range perLayer {
		res.Metrics[d.Name] = 0
	}
	reps := 2
	if seconds < 5 {
		reps = 1
	}
	tr := newTracer(1 << 20)
	spanNs := spanCost()

	if err := apiVersusComposed(w, seed, s, reps, tr, res); err != nil {
		return nil, err
	}
	if err := runLadder(w, seed, s, reps, res); err != nil {
		return nil, err
	}
	if err := tailLatency(w, seed, s, reps+1, outDir, res); err != nil {
		return nil, err
	}
	probePrimitives(w, s.ops[w.prefix():], res.Metrics)
	switch w.kind {
	case shardedEngine:
		err = shardLayers(w, seed, s, reps, tr, res)
	case durableEngine:
		err = durableLayers(w, seed, s, reps, outDir, tr, res)
	}
	if err != nil {
		return nil, err
	}

	stats, err := analyze(tr.spans, spanNs)
	if err != nil {
		res.problem("trace: %v", err)
	} else if a := stats[spanAppend]; a != nil {
		res.Metrics["acache.append_self_ns"] = a.self / float64(a.count)
	}
	if tr.dropped > 0 {
		res.Problems = append(res.Problems, fmt.Sprintf("%d spans dropped: trace buffer full", tr.dropped))
	}
	res.Metrics["trace.span_cost_ns"] = spanNs
	res.Metrics["host.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	if res.TraceFile, err = tr.write(outDir, w.name, seed); err != nil {
		return nil, err
	}
	if res.Failed > 0 {
		res.problem("%d of %d requests failed", res.Failed, res.Attempted)
	}
	return res, nil
}

// apiVersusComposed runs the real acache.Engine, the harness-composed mirror
// and the traced mirror over the same requests, segment by segment in
// rotating order, and reads every (C) counter from the real engine.
func apiVersusComposed(w workload, seed int64, s *input, reps int, tr *tracer, res *layers) error {
	pre, n := w.prefix(), w.ladder
	warm, ops, counts := s.ops[:pre], s.ops[pre:pre+n], s.ref.counts
	names := w.names()
	nseg := (n + layerSegment - 1) / layerSegment
	api, mirror, traced := newSegTimes(nseg), newSegTimes(nseg), newSegTimes(nseg)
	var repTotals, units []float64
	opts := w.options(seed)

	for rep := 0; rep < reps; rep++ {
		e, err := w.query().Build(opts)
		if err != nil {
			return err
		}
		var apiOut sink
		e.OnResult(apiOut.add)
		c, err := newComposed(w, seed, w.noCache, nil)
		if err != nil {
			e.Close()
			return err
		}
		tc, err := newComposed(w, seed, w.noCache, tr)
		if err != nil {
			e.Close()
			c.close()
			return err
		}
		firstRequest := int64(rep * n) // request ids stay unique across reps
		// Every contestant is called through the same kind of closure, so
		// the indirection costs all three the same.
		contestants := []struct {
			times  *segTimes
			append func(i int, rel string, vals []int64) int
		}{
			{api, func(_ int, rel string, vals []int64) int { return e.Append(rel, vals...) }},
			{mirror, func(_ int, rel string, vals []int64) int { return c.append(rel, vals...) }},
			{traced, func(i int, rel string, vals []int64) int {
				if i < 0 { // warm-up
					return tc.append(rel, vals...)
				}
				return tc.appendTraced(firstRequest+int64(i), rel, vals...)
			}},
		}
		for i := range warm {
			o := &warm[i]
			for _, k := range contestants {
				k.append(-1, names[o.idx], o.vals[:o.n])
			}
		}
		apiOut, *c.out, *tc.out = sink{}, sink{}, sink{}
		s0 := e.Stats()
		var allocated uint64
		var m0, m1 runtime.MemStats
		failed := 0
		for seg := 0; seg < nseg; seg++ {
			lo, hi := seg*layerSegment, min((seg+1)*layerSegment, n)
			for turn := range contestants {
				which := (seg + turn) % len(contestants)
				k := contestants[which]
				if which == 0 {
					runtime.ReadMemStats(&m0)
				}
				t0 := time.Now()
				for i := lo; i < hi; i++ {
					o := &ops[i]
					if int32(k.append(i, names[o.idx], o.vals[:o.n])) != counts[i] {
						failed++
					}
				}
				k.times.cur[seg] = int64(time.Since(t0))
				if which == 0 {
					runtime.ReadMemStats(&m1)
					allocated += m1.TotalAlloc - m0.TotalAlloc
				}
			}
		}
		s1 := e.Stats()
		plan := c.core.Plan()
		e.Close()
		c.close()
		tc.close()

		res.Attempted += 3 * n
		res.Failed += failed
		if apiOut != *c.out || apiOut != *tc.out {
			res.problem("result checksums differ: API %x/%d, composed %x/%d, traced %x/%d",
				apiOut.sum, apiOut.count, c.out.sum, c.out.count, tc.out.sum, tc.out.count)
		}
		repTotals = append(repTotals, float64(api.fold()))
		mirror.fold()
		traced.fold()

		m := res.Metrics
		updates := float64(s1.Updates - s0.Updates)
		unitsPerAppend := (s1.WorkSeconds - s0.WorkSeconds) * float64(cost.UnitsPerSecond) / float64(n)
		units = append(units, unitsPerAppend)
		m["acache.results_per_append"] = float64(s1.Outputs-s0.Outputs) / float64(n)
		m["acache.bytes_per_append"] = float64(allocated) / float64(n)
		m["stream.updates_per_append"] = updates / float64(n)
		m["cost.units_per_append"] = unitsPerAppend
		reopts := float64(s1.Reopts - s0.Reopts)
		reoptNs := float64(s1.ReoptNanos - s0.ReoptNanos)
		m["core.reopts"] = reopts
		m["core.skipped_reopts"] = float64(s1.SkippedReopts - s0.SkippedReopts)
		m["core.candidate_rescores"] = float64(s1.CandidateRescores - s0.CandidateRescores)
		m["core.reopt_ns_per_reopt"] = reoptNs / max(reopts, 1)
		m["core.reopt_ns_per_update"] = reoptNs / updates
		m["profiler.sampled_share"] = float64(s1.SampledUpdates-s0.SampledUpdates) / updates
		m["relation.window_bytes"] = float64(s1.WindowBytes)
		// The two filter counters are summed over live cache instances, so
		// a dropped cache takes its share along and a difference can dip
		// below zero.
		m["relation.filtered_probes_per_update"] = max(float64(s1.FilteredProbes)-float64(s0.FilteredProbes), 0) / updates
		m["relation.filter_fp_per_update"] = max(float64(s1.FilterFalsePositives)-float64(s0.FilterFalsePositives), 0) / updates
		m["filter.bytes"] = float64(s1.FilterBytes)
		m["cache.bytes"] = float64(s1.CacheMemoryBytes)
		m["cache.used_count"] = float64(len(plan.Caches))
		entries, hit := 0, 0.0
		for _, c := range plan.Caches {
			entries += c.Entries
			hit += c.HitRate
		}
		m["cache.entries"] = float64(entries)
		m["cache.hit_rate"] = hit / max(float64(len(plan.Caches)), 1)
	}
	for _, u := range units[1:] {
		if u != units[0] {
			res.problem("cost.units_per_append differs between reps: %v vs %v", u, units[0])
		}
	}
	m := res.Metrics
	m["trace.composed_vs_api"] = api.sum() / mirror.sum()
	m["trace.overhead_share"] = traced.sum()/mirror.sum() - 1
	m["cost.ns_per_unit"] = api.sum() / float64(n) / m["cost.units_per_append"]
	sort.Float64s(repTotals)
	m["host.rep_spread"] = repTotals[len(repTotals)-1]/repTotals[0] - 1
	if r := m["trace.composed_vs_api"]; r < 0.95 || r > 1.05 {
		res.Problems = append(res.Problems, fmt.Sprintf("composed engine runs at %.3f of the API engine's throughput: the mirror has drifted from Engine.Append", r))
	}
	return nil
}

// tailLatency reads acache.latency_p9999_ns: latency reps of the end-to-end
// run (public API, fresh engine each, best of reps by request), kept out of
// the end-to-end metrics because the tail beyond p99.9 is too steep to repeat
// over seeds (README, "End-to-end metrics").
func tailLatency(w workload, seed int64, s *input, reps int, scratch string, res *layers) error {
	measured := &input{ops: s.ops[w.prefix():], ref: s.ref}
	best := make([]int64, w.latency)
	for i := range best {
		best[i] = math.MaxInt64
	}
	for rep := 0; rep < reps; rep++ {
		l, err := build(w, w.options(seed), s.ops[:w.prefix()], scratch)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		failed := l.latency(measured, best)
		st := l.stats() // flushes a sharded engine before the sink is read
		res.Attempted += w.latency
		res.Failed += failed + int(st.Shedded) + int(st.WALErrors)
		if *l.out != s.ref.atLatency {
			res.problem("latency rep %d: %d deltas checksum %016x, reference %d deltas checksum %016x",
				rep, l.out.count, l.out.sum, s.ref.atLatency.count, s.ref.atLatency.sum)
		}
		l.close()
	}
	sort.Slice(best, func(i, j int) bool { return best[i] < best[j] })
	res.Metrics["acache.latency_p9999_ns"] = percentile(best, 0.9999)
	return nil
}

// shardLayers measures what only shard2_batch has: routing time inside
// AppendBatch, the share of wall time spent waiting in Flush, the
// Append+Flush round trip, per-shard skew and the gain over one shard.
func shardLayers(w workload, seed int64, s *input, reps int, tr *tracer, res *layers) error {
	pre, n := w.prefix(), w.ladder
	warm := s.ops[:pre]
	batches := w.batches(s.ops[pre : pre+n])
	var ends []int // batch index one past each segment's last batch
	for i, b := range batches {
		if b.end >= (len(ends)+1)*layerSegment || i == len(batches)-1 {
			ends = append(ends, i+1)
		}
	}
	p2, p1 := newSegTimes(len(ends)), newSegTimes(len(ends))
	opts := w.options(seed)
	m := res.Metrics
	oneRep := func(rep int) error {
		var engines [2]*live
		for i, shards := range []int{w.shards, 1} {
			wi := w
			wi.shards = shards
			l, err := build(wi, opts, warm, "")
			if err != nil {
				return err
			}
			defer l.close()
			engines[i] = l
		}
		two, one := engines[0].sharded, engines[1].sharded
		u0 := two.Stats().Updates
		var route, flush int64
		lo := 0
		for seg, hi := range ends {
			for turn := 0; turn < 2; turn++ {
				if (seg+turn)%2 == 0 {
					start := time.Now()
					for i, b := range batches[lo:hi] {
						id := int32(-1)
						if rep == 0 && (lo+i)%sampleEvery == 0 {
							id = tr.begin(spanRoute, -1, int64(lo+i))
						}
						t0 := time.Now()
						two.AppendBatch(b.rel, b.rows)
						route += int64(time.Since(t0))
						tr.end(id)
					}
					id := int32(-1)
					if rep == 0 {
						id = tr.begin(spanFlush, -1, int64(hi-1))
					}
					t0 := time.Now()
					two.Flush()
					flush += int64(time.Since(t0))
					tr.end(id)
					p2.cur[seg] = int64(time.Since(start))
				} else {
					start := time.Now()
					for _, b := range batches[lo:hi] {
						one.AppendBatch(b.rel, b.rows)
					}
					one.Flush()
					p1.cur[seg] = int64(time.Since(start))
				}
			}
			lo = hi
		}
		total2 := p2.fold()
		p1.fold()
		st := two.Stats()
		if *engines[0].out != *engines[1].out {
			res.problem("sharded result checksums differ: P=2 %x/%d, P=1 %x/%d",
				engines[0].out.sum, engines[0].out.count, engines[1].out.sum, engines[1].out.count)
		}
		res.Attempted += 2 * n
		res.Failed += int(st.Shedded)
		m["shard.route_ns_per_update"] = float64(route) / float64(st.Updates-u0)
		m["shard.flush_wait_share"] = float64(flush) / float64(total2)
		lowest, highest := uint64(math.MaxUint64), uint64(0)
		for _, ss := range two.ShardStats() {
			lowest, highest = min(lowest, ss.Updates), max(highest, ss.Updates)
		}
		m["shard.skew"] = float64(highest) / float64(max(lowest, 1))

		if rep == reps-1 {
			// Round trips continue on the warm two-shard engine.
			trips := s.ops[pre+n : min(pre+n+50_000, len(s.ops))]
			ds := make([]int64, 0, len(trips))
			names := w.names()
			for i := range trips {
				o := &trips[i]
				t0 := time.Now()
				two.Append(names[o.idx], o.vals[:o.n]...)
				two.Flush()
				ds = append(ds, int64(time.Since(t0)))
			}
			if len(ds) > 0 {
				sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
				m["shard.roundtrip_ns"] = float64(ds[len(ds)/2])
			}
		}
		return nil
	}
	for rep := 0; rep < reps; rep++ {
		if err := oneRep(rep); err != nil {
			return err
		}
	}
	m["shard.speedup_vs_p1"] = p1.sum() / p2.sum()
	return nil
}

// durableLayers measures what only durable_wal has: the cost of logging
// (durable engine minus a twin that tiers but does not log), SyncWAL, the
// set-up steps and the tier counters.
func durableLayers(w workload, seed int64, s *input, reps int, scratch string, tr *tracer, res *layers) error {
	pre, n := w.prefix(), w.ladder
	warm, ops := s.ops[:pre], s.ops[pre:pre+n]
	names := w.names()
	nseg := (n + layerSegment - 1) / layerSegment
	logged, plain := newSegTimes(nseg), newSegTimes(nseg)
	opts := w.options(seed)
	m := res.Metrics
	var syncs []int64
	oneRep := func(rep int) error {
		l, err := build(w, opts, warm, scratch)
		if err != nil {
			return err
		}
		defer l.close()
		if rep == 0 {
			tr.record(spanCheckpoint, l.checkpointAt, l.checkpoint)
			tr.record(spanRecover, l.recoverAt, l.recover)
		}
		dir, err := os.MkdirTemp(scratch, "t")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		twinOpts := opts
		twinOpts.Tier = acache.TierOptions{Dir: dir}
		twin, err := w.query().Build(twinOpts)
		if err != nil {
			return err
		}
		defer twin.Close()
		var twinOut sink
		twin.OnResult(twinOut.add)
		for i := range warm {
			o := &warm[i]
			twin.Append(names[o.idx], o.vals[:o.n]...)
		}
		twinOut = sink{}

		e := l.serial
		failed := 0
		for seg := 0; seg < nseg; seg++ {
			lo, hi := seg*layerSegment, min((seg+1)*layerSegment, n)
			for turn := 0; turn < 2; turn++ {
				if (seg+turn)%2 == 0 {
					var inSync int64
					start := time.Now()
					for i := lo; i < hi; i++ {
						o := &ops[i]
						e.Append(names[o.idx], o.vals[:o.n]...)
						if (i+1)%w.syncGap == 0 {
							id := int32(-1)
							if rep == 0 {
								id = tr.begin(spanSync, -1, int64(i))
							}
							t0 := time.Now()
							if e.SyncWAL() != nil {
								failed++
							}
							d := int64(time.Since(t0))
							tr.end(id)
							inSync += d
							syncs = append(syncs, d)
						}
					}
					logged.cur[seg] = int64(time.Since(start)) - inSync
				} else {
					start := time.Now()
					for i := lo; i < hi; i++ {
						o := &ops[i]
						twin.Append(names[o.idx], o.vals[:o.n]...)
					}
					plain.cur[seg] = int64(time.Since(start))
				}
			}
		}
		logged.fold()
		plain.fold()
		st := e.Stats()
		res.Attempted += 2 * n
		res.Failed += failed + int(st.WALErrors)
		if *l.out != twinOut {
			res.problem("durable result checksum %x/%d differs from its unlogged twin's %x/%d",
				l.out.sum, l.out.count, twinOut.sum, twinOut.count)
		}
		m["durable.wal_bytes_per_append"] = float64(l.walBytes) / float64(w.logged)
		m["durable.checkpoint_s"] = l.checkpoint.Seconds()
		m["durable.recover_s"] = l.recover.Seconds()
		m["durable.replay_tps"] = float64(l.replayed) / l.recover.Seconds()
		m["tier.hot_bytes"] = float64(st.TierHotBytes)
		m["tier.cold_bytes"] = float64(st.TierColdBytes)
		m["tier.promotions"] = float64(st.TierPromotions)
		m["tier.demotions"] = float64(st.TierDemotions)
		return nil
	}
	for rep := 0; rep < reps; rep++ {
		if err := oneRep(rep); err != nil {
			return err
		}
	}
	m["durable.log_ns_per_append"] = (logged.sum() - plain.sum()) / float64(n)
	if len(syncs) > 0 {
		sort.Slice(syncs, func(i, j int) bool { return syncs[i] < syncs[j] })
		m["durable.sync_ns"] = float64(syncs[len(syncs)/2])
	}
	return nil
}
