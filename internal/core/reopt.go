package core

import (
	"acache/internal/memory"
	"acache/internal/profiler"
	"acache/internal/selection"
)

// fullProfileEvery is the profiling duty cycle: every Nth re-optimization
// pays the full price (suspending used caches that cover profiled subset
// candidates); the rest profile only unobstructed candidates.
const fullProfileEvery = 4

// startReopt begins a re-optimization (Section 4.5 steps 2–4): move
// candidates into the profiled state so their statistics can be
// (re)collected, suspending used caches only when they deny an unused
// subset candidate its full probe stream (Section 4.5(b)) — and only on
// full-profile rounds.
func (en *Engine) startReopt() {
	en.reoptCount++
	en.startProfilingPhase()
}

// startProfilingPhase starts shadow estimators and enters the profiling
// state. On full-profile rounds, used caches covering a profiled subset
// candidate are suspended so the shadow sees the complete probe stream
// (Section 4.5(b)); on light rounds only unobstructed candidates profile,
// the rest keeping their previous estimates.
func (en *Engine) startProfilingPhase() {
	full := en.reoptCount%fullProfileEvery == 1 || en.reoptCount == 0
	if full {
		for _, c := range en.cands {
			if c.state != Used {
				continue
			}
			for _, d := range en.cands {
				if d.state == Used || d.spec.Pipeline != c.spec.Pipeline {
					continue
				}
				if d.spec.Start > c.spec.Start && d.spec.Start <= c.spec.End {
					if en.exec.SuspendLookup(c.spec) {
						c.suspended = true
						c.state = Profiled
						en.pf.StartShadow(c.spec)
						c.shadowOn = true
					}
					break
				}
			}
		}
	}
	covered := func(d *cand) bool {
		for _, c := range en.cands {
			if c.state == Used && d.spec.Pipeline == c.spec.Pipeline &&
				d.spec.Start > c.spec.Start && d.spec.Start <= c.spec.End {
				return true
			}
		}
		return false
	}
	for _, c := range en.cands {
		if c.state == Used {
			// Miss probability observed directly; reset the observation
			// window so the estimate is fresh.
			c.monStat = monitorSnapshot{}
			c.inst.Cache().ResetStats()
			continue
		}
		if !full && covered(c) {
			continue // estimate kept from the last full profile
		}
		c.state = Profiled
		en.pf.StartShadow(c.spec)
		c.shadowOn = true
	}
	en.profiling = true
	en.profilingFor = 0
	en.readyCand = nil
	en.readyEpochOK = false
}

// statsReady reports whether every pipeline statistic and every profiled
// candidate's shadow window is full.
//
// It is polled once per update during a profiling phase, so it memoizes at
// two levels:
//
//   - An epoch gate: every input except one is backed by windowed statistics
//     that change only at profiler stats epochs (span boundaries, profiled
//     observations, shadow-window completions, shadow start/stop, pipeline
//     resets). A false answer recorded at epoch E therefore stands while the
//     epoch is unchanged — except for the traffic-share early exit, which
//     moves with the raw tick counters; en.unreadyPipe records the pipeline
//     it blocked on (−1 when blocked on a window or shadow instead) and
//     exactly that one exit is re-checked per update. Sound because a
//     blocking window/shadow cannot fill without an epoch bump, and a
//     blocking pipeline's readiness can flip between epochs only through its
//     own traffic-share exit. ReferenceAdaptivity disables the gate.
//
//   - A cursor (en.readyCand) on the candidate last found unready, re-checked
//     first on a full scan. Sound because readiness is monotone within a
//     phase: shadow windows only fill, and candidate states change only at
//     phase boundaries (startReopt / finishReopt), which clear the cursor.
func (en *Engine) statsReady() bool {
	if !en.cfg.ReferenceAdaptivity && en.readyEpochOK && en.readyEpoch == en.pf.StatsEpoch() {
		if en.unreadyPipe < 0 || !en.pf.TrafficShareReady(en.unreadyPipe) {
			return false
		}
	}
	en.readyEpochOK = false
	if c := en.readyCand; c != nil {
		if c.state == Profiled && c.shadowOn {
			if _, ok := en.pf.ShadowMissProb(c.spec); !ok {
				en.noteUnready(-1)
				return false
			}
		}
		en.readyCand = nil
	}
	for i := 0; i < en.q.N(); i++ {
		if !en.pf.PipelineReady(i) {
			en.noteUnready(i)
			return false
		}
	}
	for _, c := range en.cands {
		if c.state != Profiled || !c.shadowOn {
			continue
		}
		if _, ok := en.pf.ShadowMissProb(c.spec); !ok {
			en.readyCand = c
			en.noteUnready(-1)
			return false
		}
	}
	return true
}

// noteUnready records a false readiness answer for the current stats epoch;
// pipe is the pipeline whose traffic-share exit blocked it, or −1 when the
// blocker was a window or shadow (which cannot fill without an epoch bump).
func (en *Engine) noteUnready(pipe int) {
	en.readyEpoch = en.pf.StatsEpoch()
	en.readyEpochOK = true
	en.unreadyPipe = pipe
}

// finishReopt evaluates the cost model for every candidate, applies the
// p-threshold skip rule, runs offline selection, and installs the chosen
// cache set.
func (en *Engine) finishReopt() {
	en.profiling = false
	en.readyCand = nil
	en.readyEpochOK = false
	for _, c := range en.cands {
		if c.state == Used || c.shadowOn {
			c.est = en.estimate(c)
		}
		// Candidates skipped by a light profile keep their previous
		// estimate (possibly stale; the next full profile refreshes it).
	}
	if !en.changedBeyondThreshold() {
		en.skippedReopts++
		en.stopShadows()
		return
	}
	en.reopts++
	en.applySelection(en.runSelection())
	en.stopShadows()
	en.allocateMemory()
	for _, c := range en.cands {
		c.selEst = c.est
		c.selSet = true
	}
}

// inChosen builds the chosen-set membership map in a reused buffer (valid
// until the next call).
func (en *Engine) inChosen(chosen []*cand) map[*cand]bool {
	if en.inChosenBuf == nil {
		en.inChosenBuf = make(map[*cand]bool, len(chosen))
	}
	clear(en.inChosenBuf)
	for _, c := range chosen {
		en.inChosenBuf[c] = true
	}
	return en.inChosenBuf
}

func (en *Engine) stopShadows() {
	for _, c := range en.cands {
		if c.state == Profiled {
			en.pf.StopShadow(c.spec)
			c.state = Unused
		}
		c.shadowOn = false
	}
}

// estimate evaluates the cost model for a candidate: used caches supply
// their directly observed miss probability, profiled ones their shadow
// estimate (Section 4.3).
func (en *Engine) estimate(c *cand) profiler.Estimate {
	en.candRescores++
	var missProb float64
	var distinct float64
	switch c.state {
	case Used:
		st := c.inst.Cache().Stats()
		if st.Probes > 0 {
			missProb = float64(st.Misses) / float64(st.Probes)
		}
		distinct = float64(c.inst.Cache().Entries())
	default:
		missProb, _ = en.pf.ShadowMissProb(c.spec)
		distinct, _ = en.pf.ShadowDistinct(c.spec)
	}
	return en.pf.Estimate(c.spec, missProb, distinct)
}

// changedBeyondThreshold implements the p-threshold of Section 4.5(c):
// selection reruns only when some used or profiled cache's benefit or cost
// moved more than the configured fraction since the last selection.
func (en *Engine) changedBeyondThreshold() bool {
	const p = changeThreshold
	for _, c := range en.cands {
		if !c.selSet || c.est.Ready != c.selEst.Ready {
			// Never selected with this candidate known, or it became
			// estimable (or lost its statistics) since the last selection.
			return true
		}
		if relChange(c.est.Benefit, c.selEst.Benefit) > p ||
			relChange(c.est.Cost, c.selEst.Cost) > p {
			return true
		}
	}
	return false
}

func relChange(now, then float64) float64 {
	d := now - then
	if d < 0 {
		d = -d
	}
	base := then
	if base < 0 {
		base = -base
	}
	if base == 0 {
		if d == 0 {
			return 0
		}
		return 1
	}
	return d / base
}

// runSelection builds the selection problem from current estimates and runs
// the configured offline algorithm. The problem, candidate list, group
// index, and algorithm workspace all live on the engine and are reused, so
// a warm selection allocates nothing; ReferenceAdaptivity rebuilds them
// from scratch each time (identical results, the reuse's differential
// foil). The returned slice is valid until the next selection.
func (en *Engine) runSelection() []*cand {
	ref := en.cfg.ReferenceAdaptivity
	prob := &en.selProb
	ws := &en.selWS
	groupIDs := en.selGroupIDs
	list := en.selList[:0]
	if ref {
		prob = &selection.Problem{}
		ws = &selection.Workspace{}
		groupIDs = nil
		list = nil
	}
	if groupIDs == nil {
		groupIDs = make(map[string]int)
		if !ref {
			en.selGroupIDs = groupIDs
		}
	}
	clear(groupIDs)
	n := en.q.N()
	if cap(prob.OpCosts) < n {
		prob.OpCosts = make([][]float64, n)
	}
	prob.OpCosts = prob.OpCosts[:n]
	for i := 0; i < n; i++ {
		costs := prob.OpCosts[i][:0]
		for j := range en.ord[i] {
			costs = append(costs, en.pf.OpCost(i, j))
		}
		prob.OpCosts[i] = costs
	}
	prob.Cands = prob.Cands[:0]
	prob.GroupCosts = prob.GroupCosts[:0]
	for _, c := range en.cands {
		if !c.est.Ready {
			continue
		}
		gid, ok := groupIDs[c.spec.SharingID()]
		if !ok {
			gid = len(prob.GroupCosts)
			groupIDs[c.spec.SharingID()] = gid
			prob.GroupCosts = append(prob.GroupCosts, c.est.Cost)
		}
		prob.Cands = append(prob.Cands, selection.Candidate{
			Pipeline: c.spec.Pipeline,
			Start:    c.spec.Start,
			End:      c.spec.End,
			Group:    gid,
			Benefit:  c.est.Benefit,
		})
		list = append(list, c)
	}
	if !ref {
		en.selList = list
	}
	var res selection.Result
	switch {
	case en.cfg.BudgetAware && en.mem.Budget() >= 0:
		// Integrated selection under the memory budget (extension; the
		// paper's modular pipeline is the default).
		bp := &selection.BudgetedProblem{Problem: *prob, Budget: float64(en.mem.Budget())}
		maxGroup := -1
		for _, c := range prob.Cands {
			if c.Group > maxGroup {
				maxGroup = c.Group
			}
		}
		bp.GroupBytes = make([]float64, maxGroup+1)
		for idx, c := range prob.Cands {
			if b := list[idx].est.ExpectedBytes; b > bp.GroupBytes[c.Group] {
				bp.GroupBytes[c.Group] = b
			}
		}
		if len(prob.Cands) <= 18 {
			res = selection.BudgetedExhaustive(bp)
		} else {
			res = selection.BudgetedGreedy(bp)
		}
	case en.cfg.Selection == SelectExhaustive:
		res = ws.Exhaustive(prob)
	case en.cfg.Selection == SelectGreedy:
		res = ws.Greedy(prob)
	case en.cfg.Selection == SelectRandomized:
		var err error
		res, err = selection.Randomized(prob, en.rng)
		if err != nil {
			res = ws.Greedy(prob)
		}
	default:
		res = ws.Select(prob)
	}
	chosen := en.chosenBuf[:0]
	for _, i := range res.Chosen {
		chosen = append(chosen, list[i])
	}
	en.chosenBuf = chosen
	return chosen
}

// applySelection moves the engine to the chosen cache set: detach used
// caches that fell out, attach newly chosen ones (sharing instances by
// identity).
func (en *Engine) applySelection(chosen []*cand) {
	inChosen := en.inChosen(chosen)
	for _, c := range en.cands {
		if !inChosen[c] && (c.state == Used || c.suspended) {
			en.detach(c)
		}
	}
	for _, c := range chosen {
		if c.state == Used {
			continue
		}
		if c.state == Profiled {
			en.pf.StopShadow(c.spec)
		}
		if c.suspended {
			// Resume warm: the instance stayed maintained while suspended.
			if !en.exec.ResumeLookup(c.spec) {
				// Conflicting state accumulated while suspended (e.g. a
				// maintenance operator landed inside the span); release
				// the placement instead.
				en.detach(c)
				continue
			}
			c.suspended = false
			c.state = Used
			st := c.inst.Cache().Stats()
			c.monStat = monitorSnapshot{probes: st.Probes, hits: st.Hits}
			continue
		}
		// Direct-mapped buckets collide birthday-style: at load factor 1
		// more than a third of keys evict each other, so over-provision 8×
		// (collision-miss ≈ 6%), rounded up to a power of two.
		buckets := 64
		for buckets < 8*int(c.est.ExpectedEntries) && buckets < 1<<17 {
			buckets *= 2
		}
		inst := en.instanceFor(c.spec, buckets)
		if err := en.exec.AttachCache(c.spec, inst); err != nil {
			// The executor enforces constraints the selection does not
			// model — notably that a cache span must not swallow another
			// cache's maintenance operator (possible with self-maintained
			// segments). Skip the placement; the next re-optimization may
			// order the attachments differently.
			if inst.Cache().Entries() == 0 {
				// Fresh instance that never attached: release it.
				id := c.spec.SharingID()
				orphan := true
				for _, d := range en.cands {
					if d != c && (d.state == Used || d.suspended) && d.spec.SharingID() == id {
						orphan = false
						break
					}
				}
				if orphan {
					delete(en.instances, id)
				}
			}
			c.state = Unused
			continue
		}
		c.warmed = false
		c.inst = inst
		c.state = Used
		c.warmProbes = 3 * int64(c.est.ExpectedEntries)
		if c.warmProbes < 100 {
			c.warmProbes = 100
		}
		st := inst.Cache().Stats()
		c.monStat = monitorSnapshot{probes: st.Probes, hits: st.Hits}
	}
}

// detach removes a used or suspended placement; when its instance's last
// placement goes away the instance is released.
func (en *Engine) detach(c *cand) {
	if c.state != Used && !c.suspended {
		return
	}
	if c.suspended {
		en.pf.StopShadow(c.spec)
	}
	en.exec.DetachCache(c.spec)
	id := c.spec.SharingID()
	inUse := false
	for _, d := range en.cands {
		if d != c && (d.state == Used || d.suspended) && d.spec.SharingID() == id {
			inUse = true
			break
		}
	}
	if !inUse {
		delete(en.instances, id)
	}
	c.inst = nil
	c.suspended = false
	c.state = Unused
}

// allocInfo aggregates one shared instance's net benefit and byte appetite
// while allocateMemory groups candidates by sharing identity.
type allocInfo struct {
	net   float64
	bytes float64
}

// allocateMemory divides the budget among used caches by priority
// (Section 5) and applies the grants as per-instance byte budgets. Its
// grouping map, request slice, and grant map live on the engine and are
// reused, so the periodic rebalance path allocates nothing at steady state.
func (en *Engine) allocateMemory() {
	if en.allocInfos == nil {
		en.allocInfos = make(map[string]allocInfo)
		en.allocGrants = make(map[string]int)
	}
	clear(en.allocInfos)
	for _, c := range en.cands {
		if c.state != Used {
			continue
		}
		id := c.spec.SharingID()
		info, seen := en.allocInfos[id]
		if !seen {
			info.net = -c.est.Cost // group cost once
		}
		info.net += c.est.Benefit
		b := c.est.ExpectedBytes
		if actual := float64(en.instances[id].Cache().UsedBytes()); actual > b {
			b = actual
		}
		if b > info.bytes {
			info.bytes = b
		}
		en.allocInfos[id] = info
	}
	en.allocReqs = en.allocReqs[:0]
	for id, info := range en.allocInfos {
		bytes := int(info.bytes)
		if bytes < memory.PageBytes {
			bytes = memory.PageBytes
		}
		en.allocReqs = append(en.allocReqs, memory.Request{
			ID:       id,
			Priority: info.net / float64(bytes),
			Bytes:    bytes,
		})
	}
	en.mem.AllocateInto(en.allocGrants, en.allocReqs)
	for id, grant := range en.allocGrants {
		if inst, ok := en.instances[id]; ok {
			inst.Cache().SetBudget(grant)
		}
	}
}

// groupEval aggregates one sharing group's monitored net benefit; the
// engine's monEvals slice reuses these (and their member slices) across
// monitor runs so the periodic check allocates nothing at steady state.
type groupEval struct {
	net     float64
	members []*cand
	ready   bool
}

// monitorUsed implements Section 4.5(a): benefit(C) − cost(C) is monitored
// continuously for used caches via their live hit statistics, and a cache
// whose group turns unprofitable is moved to Unused immediately. (Gradual
// reaction — promoting unused caches — happens only at re-optimization.)
func (en *Engine) monitorUsed() {
	// Evaluate per sharing group: benefits add up, cost is paid once.
	if en.monIdx == nil {
		en.monIdx = make(map[string]int)
	}
	clear(en.monIdx)
	evals := en.monEvals[:0]
	for _, c := range en.cands {
		if c.state != Used {
			continue
		}
		st := c.inst.Cache().Stats()
		if !c.warmed {
			// Warm-up grace: a freshly attached cache is still populating;
			// its cold-start misses must never count against it. Once
			// enough probes have passed to populate the expected entry
			// set, rebaseline and start judging from there.
			if st.Probes-c.monStat.probes >= c.warmProbes {
				c.warmed = true
				c.monStat = monitorSnapshot{probes: st.Probes, hits: st.Hits}
			}
			continue
		}
		dp := st.Probes - c.monStat.probes
		dh := st.Hits - c.monStat.hits
		if dp < int64(en.pf.W()) {
			continue // too few probes since the last check to judge
		}
		missProb := 1 - float64(dh)/float64(dp)
		c.monStat = monitorSnapshot{probes: st.Probes, hits: st.Hits}
		en.candRescores++
		est := en.pf.Estimate(c.spec, missProb, float64(c.inst.Cache().Entries()))
		if !est.Ready {
			continue
		}
		c.est = est
		id := c.spec.SharingID()
		gi, ok := en.monIdx[id]
		if !ok {
			gi = len(evals)
			en.monIdx[id] = gi
			if gi < cap(evals) {
				evals = evals[:gi+1]
				e := &evals[gi]
				e.net = -est.Cost
				e.members = e.members[:0]
				e.ready = false
			} else {
				evals = append(evals, groupEval{net: -est.Cost})
			}
		}
		e := &evals[gi]
		e.net += est.Benefit
		e.members = append(e.members, c)
		e.ready = true
	}
	en.monEvals = evals
	for i := range evals {
		g := &evals[i]
		if g.ready && g.net < 0 {
			for _, c := range g.members {
				c.demotions++
				en.detach(c)
			}
		}
	}
}
