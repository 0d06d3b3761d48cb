package profiler

import (
	"acache/internal/cache"
	"acache/internal/cost"
	"acache/internal/planner"
)

// Estimate is the Section 4.1 cost model evaluated from online statistics.
// All quantities are in seconds of processing per second of stream time
// (the unit-time cost metric), except the memory fields.
type Estimate struct {
	// Benefit is benefit(C): processing saved per unit time by using the
	// cache, before maintenance.
	Benefit float64
	// Cost is cost(C): the unit-time maintenance cost, shared across a
	// sharing group.
	Cost float64
	// Proc is proc(C) = Σ d_il·c_il − Benefit: the unit-time cost of
	// processing the segment through the cache (alternative minimization
	// formulation of Section 4.4).
	Proc float64
	// MissProb is the miss probability used in the model.
	MissProb float64
	// ExpectedEntries and ExpectedBytes are the memory sizing estimates
	// (Section 5): entries × (key + refs + bucket overhead).
	ExpectedEntries float64
	ExpectedBytes   float64
	// Ready reports whether every contributing statistic had a full
	// window of observations.
	Ready bool
}

// secs converts a per-operation unit charge to seconds.
func secs(u cost.Units) float64 { return cost.Seconds(u) }

// ProbeCostPerTuple returns probe_cost(C): seconds per probing tuple, as a
// function of the (constant) key size and the average number of tuples per
// cached entry (Appendix A) — the hash probe, key extraction, and hit
// emission of the entry's tuples.
func ProbeCostPerTuple(nKeyAttrs int, missProb, avgEntryTuples float64) float64 {
	return secs(cost.HashProbe) + float64(nKeyAttrs)*secs(cost.KeyExtract) +
		(1-missProb)*avgEntryTuples*secs(cost.OutputTuple)
}

// UpdateCostPerTuple returns update_cost(C): seconds per maintenance (or
// miss-population) tuple — key extraction, bucket lookup, and value edit.
func UpdateCostPerTuple(nKeyAttrs int) float64 {
	return secs(cost.HashProbe) + secs(cost.CacheInsertTuple) + float64(nKeyAttrs)*secs(cost.KeyExtract)
}

// Estimate evaluates the cost model for candidate spec using missProb
// (observed directly for used caches, or a shadow estimate — the caller
// picks per the cache's state). distinct is the expected-entries estimate
// for memory sizing, or 0 when unknown.
func (pf *Profiler) Estimate(spec *planner.Spec, missProb, distinct float64) Estimate {
	i := spec.Pipeline
	ready := pf.PipelineReady(i)

	// Σ_{l=j..k} d_il·c_il — the segment's unit-time cost without the cache.
	dcSum := 0.0
	for pos := spec.Start; pos <= spec.End; pos++ {
		dcSum += pf.OpCost(i, pos)
	}
	dProbe := pf.D(i, spec.Start)
	dNext := pf.D(i, spec.End+1)
	avgEntry := 0.0
	if dProbe > 0 {
		avgEntry = dNext / dProbe
	}
	nKey := len(spec.KeyClasses)
	probeCost := ProbeCostPerTuple(nKey, missProb, avgEntry)
	updateCost := UpdateCostPerTuple(nKey)

	// Section 4.1:
	// benefit = Σ d·c − d_ij·probe_cost − miss_prob·(Σ d·c + d_{i,k+1}·update_cost)
	benefit := dcSum - dProbe*probeCost - missProb*(dcSum+dNext*updateCost)
	if spec.GC {
		// Miss population additionally probes the reduction join Y once
		// per populated tuple (Section 6 maintenance).
		benefit -= missProb * dNext * float64(len(spec.Y)) * secs(cost.HashProbe)
	}

	// cost = update_cost × Σ_{l∈scope} d_{l,|scope|−1}: the rate of
	// segment-join (or X∪Y-join) deltas flowing past the maintenance
	// operators (Section 4.1; Section 6 widens the scope to X ∪ Y).
	// Self-maintained caches instead pay, per segment-relation update, the
	// mini-join over the other segment relations plus the per-delta-tuple
	// maintenance, with the using pipeline's average entry size as the
	// delta-size proxy.
	var costC float64
	if spec.SelfMaint {
		perUpdate := float64(len(spec.Segment)-1)*secs(cost.IndexProbe) +
			avgEntry*(secs(cost.OutputTuple)+updateCost)
		for _, l := range spec.Segment {
			costC += pf.Rate(l) * perUpdate
			if !pf.PipelineReady(l) {
				ready = false
			}
		}
	} else {
		scope := spec.Segment
		if spec.GC {
			// Widened X ∪ Y scope, built in a reused scratch slice: Estimate
			// runs on every candidate each re-optimization and must not
			// allocate at steady state.
			pf.scopeBuf = append(append(pf.scopeBuf[:0], spec.Segment...), spec.Y...)
			scope = pf.scopeBuf
		}
		maintPos := len(scope) - 1
		maintRate := 0.0
		for _, l := range scope {
			maintRate += pf.D(l, maintPos)
			if !pf.PipelineReady(l) {
				ready = false
			}
		}
		costC = updateCost * maintRate
	}

	entryBytes := float64(8*nKey+cache.BucketBytes) + avgEntry*cache.RefBytes
	if spec.GC {
		entryBytes = float64(8*nKey+cache.BucketBytes) + avgEntry*3*cache.RefBytes
	}
	return Estimate{
		Benefit:         benefit,
		Cost:            costC,
		Proc:            dcSum - benefit,
		MissProb:        missProb,
		ExpectedEntries: distinct,
		ExpectedBytes:   distinct * entryBytes,
		Ready:           ready,
	}
}
