package main

import (
	"time"

	"acache/internal/core"
	"acache/internal/cost"
	"acache/internal/join"
	"acache/internal/ordering"
	"acache/internal/stream"
	"acache/internal/tuple"
)

// The differential ladder prices the layers that cannot be separated by
// spans from outside: each rung is a bigger piece of the engine processing
// the very same window updates, and a layer's cost is the difference between
// two rungs.
//
//	exec      bare join.Exec.Process              → join.mjoin_ns_per_update
//	profiled  bare join.Exec.ProcessProfiled      → profiler.profiled_ns_per_update (minus exec)
//	runs      bare join.Exec.ProcessRun           → join.run_ns_per_update
//	coreOff   core.Engine, DisableCaching         → core.overhead_ns_per_update (minus exec)
//	coreOn    core.Engine, the workload's config  → core.process_ns_per_update,
//	                                                core.adaptive_delta_ns_per_update (minus coreOff)
//
// The bare executor has no result sink, so core.overhead includes result
// emission into the harness's callback.

// updateSource turns ops into the window updates acache.Engine would feed
// the core engine: one SlidingWindow per relation, AppendInto per tuple (or,
// for batch workloads, AppendBatchInto per same-relation run).
type updateSource struct {
	windows []*stream.SlidingWindow
	runLen  int
	buf     []stream.Update
	batch   []tuple.Tuple
	seq     uint64
}

func newUpdateSource(w workload) *updateSource {
	s := &updateSource{runLen: w.runLen}
	for _, r := range w.rels {
		s.windows = append(s.windows, stream.NewSlidingWindow(r.window))
	}
	return s
}

// fill returns the updates of ops, valid until the next call.
func (s *updateSource) fill(ops []op) []stream.Update {
	ups := s.buf[:0]
	for i := 0; i < len(ops); {
		idx := int(ops[i].idx)
		from := len(ups)
		if s.runLen > 1 {
			s.batch = s.batch[:0]
			j := i
			for j < len(ops) && int(ops[j].idx) == idx && j-i < s.runLen {
				s.batch = append(s.batch, tuple.Tuple(ops[j].vals[:ops[j].n]).Clone())
				j++
			}
			ups = s.windows[idx].AppendBatchInto(s.batch, ups)
			i = j
		} else {
			ups = s.windows[idx].AppendInto(tuple.Tuple(ops[i].vals[:ops[i].n]).Clone(), ups)
			i++
		}
		for k := from; k < len(ups); k++ {
			s.seq++
			ups[k].Rel, ups[k].Seq = idx, s.seq
		}
	}
	s.buf = ups
	return ups
}

// rung is one contestant of the ladder.
type rung struct {
	name    string
	process func(ups []stream.Update) (outputs int)
	close   func()
	outputs int
}

func bareExec(w workload) (*join.Exec, error) {
	q, err := w.internalQuery()
	if err != nil {
		return nil, err
	}
	scan, err := w.scanOnly()
	if err != nil {
		return nil, err
	}
	return join.NewExec(q, ordering.InitialOrdering(len(w.rels)), &cost.Meter{}, join.Options{ScanOnly: scan})
}

func coreRung(w workload, seed int64, name string, disableCaching bool) (*rung, error) {
	q, err := w.internalQuery()
	if err != nil {
		return nil, err
	}
	cfg, err := w.coreConfig(seed, disableCaching)
	if err != nil {
		return nil, err
	}
	en, err := core.NewEngine(q, nil, cfg)
	if err != nil {
		return nil, err
	}
	var out sink
	en.OnResult(func(ins bool, vals []tuple.Value) { out.add(ins, vals) })
	return &rung{name: name, close: en.Close, process: func(ups []stream.Update) (n int) {
		for i := range ups {
			n += en.Process(ups[i])
		}
		return n
	}}, nil
}

// ladderCounts are the (C) figures the profiled rung yields.
type ladderCounts struct {
	updates, stepInputs, runCalls int
}

func newRungs(w workload, seed int64, counts *ladderCounts) ([]*rung, error) {
	var rungs []*rung
	fail := func(err error) ([]*rung, error) {
		for _, r := range rungs {
			r.close()
		}
		return nil, err
	}
	for _, name := range []string{"exec", "profiled", "runs"} {
		ex, err := bareExec(w)
		if err != nil {
			return fail(err)
		}
		r := &rung{name: name, close: ex.Close}
		switch name {
		case "exec":
			r.process = func(ups []stream.Update) (n int) {
				for i := range ups {
					n += ex.Process(ups[i]).Outputs
				}
				return n
			}
		case "profiled":
			r.process = func(ups []stream.Update) (n int) {
				for i := range ups {
					res, prof := ex.ProcessProfiled(ups[i])
					n += res.Outputs
					for _, in := range prof.StepInputs[:len(prof.StepInputs)-1] {
						counts.stepInputs += in
					}
				}
				counts.updates += len(ups)
				return n
			}
		case "runs":
			r.process = func(ups []stream.Update) (n int) {
				for i := 0; i < len(ups); {
					j := i + 1
					for j < len(ups) && ups[j].Rel == ups[i].Rel && ups[j].Op == ups[i].Op {
						j++
					}
					if j-i > 1 && ex.Batchable(ups[i].Rel) {
						n += ex.ProcessRun(ups[i:j]).Outputs
						counts.runCalls++
					} else {
						for k := i; k < j; k++ {
							n += ex.Process(ups[k]).Outputs
							counts.runCalls++
						}
					}
					i = j
				}
				return n
			}
		}
		rungs = append(rungs, r)
	}
	for _, c := range []struct {
		name string
		off  bool
	}{{"coreOff", true}, {"coreOn", w.noCache}} {
		r, err := coreRung(w, seed, c.name, c.off)
		if err != nil {
			return fail(err)
		}
		rungs = append(rungs, r)
	}
	return rungs, nil
}

// runLadder feeds every rung the same updates, segment by segment in
// rotating order, and derives the differential metrics from the per-segment
// minima over reps.
func runLadder(w workload, seed int64, s *input, reps int, res *layers) error {
	pre, n := w.prefix(), w.ladder
	warm, ops := s.ops[pre-min(w.ladderWarm, pre):pre], s.ops[pre:pre+n]
	nseg := (n + layerSegment - 1) / layerSegment
	window := newSegTimes(nseg)
	var times map[string]*segTimes
	var counts ladderCounts
	updates, outputs := 0, 0
	for rep := 0; rep < reps; rep++ {
		rungs, err := newRungs(w, seed, &counts)
		if err != nil {
			return err
		}
		if times == nil {
			times = map[string]*segTimes{}
			for _, r := range rungs {
				times[r.name] = newSegTimes(nseg)
			}
		}
		src := newUpdateSource(w)
		for lo := 0; lo < len(warm); lo += layerSegment {
			ups := src.fill(warm[lo:min(lo+layerSegment, len(warm))])
			for _, r := range rungs {
				r.process(ups)
			}
		}
		counts = ladderCounts{} // drop what the warm-up counted
		updates = 0
		for seg := 0; seg < nseg; seg++ {
			t0 := time.Now()
			ups := src.fill(ops[seg*layerSegment : min((seg+1)*layerSegment, n)])
			window.cur[seg] = int64(time.Since(t0))
			updates += len(ups)
			for turn := range rungs {
				r := rungs[(seg+turn)%len(rungs)]
				t0 := time.Now()
				r.outputs += r.process(ups)
				times[r.name].cur[seg] = int64(time.Since(t0))
			}
		}
		window.fold()
		outputs = rungs[0].outputs
		for _, r := range rungs {
			times[r.name].fold()
			if r.outputs != rungs[0].outputs {
				res.problem("ladder rung %s emitted %d results, %s emitted %d", r.name, r.outputs, rungs[0].name, rungs[0].outputs)
			}
			r.close()
		}
		res.Attempted += n
	}
	per := func(name string) float64 { return times[name].sum() / float64(updates) }
	m := res.Metrics
	m["stream.window_ns_per_append"] = window.sum() / float64(n)
	m["join.mjoin_ns_per_update"] = per("exec")
	m["join.outputs_per_update"] = float64(outputs) / float64(updates)
	m["join.run_ns_per_update"] = per("runs")
	m["join.run_len_mean"] = float64(updates) / float64(max(counts.runCalls, 1))
	m["join.step_inputs_per_update"] = float64(counts.stepInputs) / float64(max(counts.updates, 1))
	m["profiler.profiled_ns_per_update"] = per("profiled") - per("exec")
	m["core.process_ns_per_update"] = per("coreOn")
	m["core.overhead_ns_per_update"] = per("coreOff") - per("exec")
	m["core.adaptive_delta_ns_per_update"] = per("coreOn") - per("coreOff")
	perAppend := func(name string) float64 { return (window.sum() + times[name].sum()) / float64(n) }
	m["core.speedup_vs_mjoin"] = perAppend("coreOff") / perAppend("coreOn")
	return nil
}
