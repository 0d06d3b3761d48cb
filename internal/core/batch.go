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
//     exactly once per update. The driver draws in update order while
//     sizing a run; a terminating "profile this one" draw is carried to the
//     next iteration instead of redrawn.
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
	total := 0
	carryProfiled := false // ups[i]'s draw already made (and true) while sizing
	for i := 0; i < len(ups); {
		u := ups[i]
		var profiled bool
		if carryProfiled {
			profiled, carryProfiled = true, false
		} else {
			profiled = en.shouldProfile(u.Rel)
		}
		limit := en.runLimit(u.Rel)
		if profiled || limit <= 1 {
			en.meter.Charge(cost.WindowMaint)
			total += en.processUpdate(u, profiled)
			i++
			continue
		}
		j := i + 1
		for j < len(ups) && j-i < limit && ups[j].Rel == u.Rel && ups[j].Op == u.Op {
			if en.shouldProfile(ups[j].Rel) {
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

// runLimit bounds the length of a batched run starting at an update to rel so
// that no state observation point falls strictly inside the run. The profiler
// caps it at the next rate-span boundary (a whole span away for a plain MJoin,
// which never ticks); outside the forced / caching-off modes (which skip
// adaptivity entirely) the monitor and re-optimization intervals cap it too,
// and profiling phases force fully serial processing so every update's
// statsReady check happens at its per-update position.
func (en *Engine) runLimit(rel int) int {
	if en.exec.SharedStores() > 0 {
		// Cross-query shared stores require sharers to interleave per
		// update (join.Exec's lockstep contract); a vectorized run would
		// apply a whole stretch before co-sharers observed any of it.
		return 1
	}
	if !en.exec.Batchable(rel) {
		return 1
	}
	limit := en.pf.TicksToSpan(rel)
	if len(en.cfg.ForcedCaches) > 0 || en.cfg.DisableCaching || en.pausedCaching {
		return limit
	}
	if en.profiling {
		return 1
	}
	if m := en.monitorEvery - en.sinceMonitor; m < limit {
		limit = m
	}
	if r := en.cfg.ReoptInterval - en.sinceReopt; r < limit {
		limit = r
	}
	return limit
}
