package core

import (
	"acache/internal/cost"
)

// The filter on/off knob: fingerprint filters in front of the store indexes
// are pure wall-clock accelerators — results and simulated cost are identical
// either way — so the re-optimizer treats them like the caches of Section 3.2:
// consistent without being required, droppable and rebuildable (empty of
// obligations) at near-zero cost. The decision per store weighs what the
// filter saves (the slot search each miss avoids) against what it costs
// (a membership check on every probe plus maintenance mirrored on every
// chain creation and clear), using the advisory FilterProbe / FilterMaint
// constants — never the meter, which charges the unfiltered tariff always.
//
// The knob looks at observed counter deltas on its own MonitorInterval
// cadence, before the forced/disabled-caching early return: a plain MJoin
// (DisableCaching) is exactly the configuration filters help most. Probes
// and Misses are counted by the stores whether filters are on or off, so the
// decision has its inputs in both states. A MonitorInterval counts updates of
// all relations together, so a late-pipeline store may see a few dozen probes
// in one and its gain : overhead ratio swings across both thresholds on noise;
// each store therefore decides only once filterEvidence events have
// accumulated since its last decision. Hysteresis (enable above 1.25×,
// disable below 0.8×) keeps a borderline store from flapping beyond that,
// since each enable pays a rebuild walk over the index tables.

// filterSnap is the counter snapshot of one store at its last decision, so
// the knob works on deltas since then.
type filterSnap struct {
	probes, misses, chainOps uint64
}

// filterEnableNum/Den and filterDisableNum/Den encode the hysteresis
// thresholds as integer ratios (gain : overhead); filterEvidence is how many
// probes + chain operations a store must have seen since its last decision
// before it takes the next.
const (
	filterEnableNum  = 5 // enable when gain > 1.25 × overhead
	filterEnableDen  = 4
	filterDisableNum = 4 // disable when gain < 0.8 × overhead
	filterDisableDen = 5
	filterEvidence   = 8192
)

// adaptFilters re-decides the filter knob of every store that has gathered
// enough evidence since its last decision.
func (en *Engine) adaptFilters() {
	n := en.q.N()
	if en.filterSnaps == nil {
		en.filterSnaps = make([]filterSnap, n)
	}
	for rel := 0; rel < n; rel++ {
		s := en.exec.Store(rel)
		fs := s.FilterStats()
		ops := s.ChainOps()
		snap := &en.filterSnaps[rel]
		dProbes := fs.Probes - snap.probes
		dMisses := fs.Misses - snap.misses
		dOps := ops - snap.chainOps
		if dProbes+dOps < filterEvidence {
			continue // too little to go on: let it accumulate
		}
		*snap = filterSnap{probes: fs.Probes, misses: fs.Misses, chainOps: ops}
		// gain: each miss would skip the slot search (≈ the cheap-probe
		// tariff) at the price of the filter check it pays anyway.
		gain := dMisses * uint64(cost.HashProbe-cost.FilterProbe)
		overhead := dProbes*uint64(cost.FilterProbe) + dOps*uint64(cost.FilterMaint)
		if s.FiltersEnabled() {
			if gain*filterDisableDen < overhead*filterDisableNum {
				s.SetFiltersEnabled(false)
			}
		} else {
			if gain*filterEnableDen > overhead*filterEnableNum {
				s.SetFiltersEnabled(true)
			}
		}
	}
}
