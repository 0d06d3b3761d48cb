package core

import (
	"acache/internal/cost"
	"acache/internal/stream"
)

// Batched ingestion. ProcessBatch splits an update batch into runs —
// maximal stretches of consecutive updates to the same relation with the
// same operation — and pushes each run through the executor's vectorized
// path (join.Exec.ProcessRun) in one pass, amortizing arena resets, operator
// dispatch, and adaptivity bookkeeping over the run while keeping results
// and simulated cost charges identical to the per-update loop.
//
// The equivalence rests on where the serial path *observes* shared state:
//
//   - The cost meter is read only at profiler rate-span boundaries (the
//     tick that rolls a span over), by stopwatches, and by the monitor /
//     re-optimization machinery. Run lengths are capped (runLimit) so none
//     of those observation points falls strictly inside a run; reordering
//     charges within a run is therefore invisible.
//   - The profiler's random sequence is consumed only by ShouldProfile,
//     exactly once per update of an adaptive engine. The driver draws in
//     update order while sizing a run; a terminating "profile this one" draw
//     is carried to the next iteration instead of redrawn.
//   - Profiled updates, runs of one, and relations the executor reports as
//     non-batchable all go through processUpdate — literally the serial
//     code path.
//
// A run ends in the serial loop's own bookkeeping (afterUpdates), with every
// counter advanced by the run length. The monitor and re-optimization
// counters land on the same update indices as the serial loop because
// runLimit never lets a run cross their boundaries: a boundary can only
// coincide with a run's final update.
func (en *Engine) ProcessBatch(ups []stream.Update) int {
	a := en.ad // only the adaptive controller draws
	total := 0
	carryProfiled := false // ups[i]'s draw already made (and true) while sizing
	for i := 0; i < len(ups); {
		u := ups[i]
		profiled := carryProfiled || a != nil && a.pf.ShouldProfile(u.Rel)
		carryProfiled = false
		limit := en.runLimit(u.Rel)
		if profiled || limit <= 1 {
			en.meter.Charge(cost.WindowMaint)
			total += en.processUpdate(u, profiled)
			i++
			continue
		}
		j := i + 1
		for j < len(ups) && j-i < limit && ups[j].Rel == u.Rel && ups[j].Op == u.Op {
			if a != nil && a.pf.ShouldProfile(ups[j].Rel) {
				carryProfiled = true
				break
			}
			j++
		}
		if j == i+1 {
			// A run of one gains nothing over the serial path.
			en.meter.Charge(cost.WindowMaint)
			total += en.processUpdate(u, false)
			i++
			continue
		}
		k := j - i
		en.meter.ChargeN(cost.WindowMaint, k)
		res := en.exec.ProcessRun(ups[i:j])
		en.afterUpdates(u.Rel, k, res.Outputs)
		total += res.Outputs
		i = j
	}
	return total
}

// maxRun caps a batched run when no adaptive controller observes the engine
// between updates (an MJoin, a pinned plan, a paused engine); it bounds the
// executor's per-run scratch at an adaptive engine's longest run, one default
// rate span.
const maxRun = 50

// runLimit bounds the length of a batched run starting at an update to rel so
// that no state observation point falls strictly inside the run; the
// adaptive controller owns every such point (adaptive.runLimit).
func (en *Engine) runLimit(rel int) int {
	if !en.exec.Batchable(rel) {
		return 1
	}
	if a := en.ad; a != nil {
		return a.runLimit(rel)
	}
	return maxRun
}
