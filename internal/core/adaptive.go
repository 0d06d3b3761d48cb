package core

import (
	"math/rand"
	"slices"
	"time"

	"acache/internal/profiler"
	"acache/internal/selection"
)

// fullProfileEvery is the profiling duty cycle: every Nth re-optimization
// pays the full price (suspending used caches that cover profiled subset
// candidates); the rest profile only unobstructed candidates.
const fullProfileEvery = 4

// changeThreshold is p of Section 4.5(c): re-optimization is skipped unless
// some used or profiled cache's benefit or cost moved by more than this
// fraction since the last selection.
const changeThreshold = 0.2

// adaptive is the Profiler and Re-optimizer of Figure 4: everything only an
// adaptive engine runs — the sampling draw, profiled observations and rate
// ticks, used-cache monitoring, profiling phases and selection, with their
// scratch and telemetry. An MJoin or a pinned plan has none (Engine.ctl is
// nil), and a paused engine sets its own aside (SetCachingPaused), so
// neither pays for statistics nothing reads.
type adaptive struct {
	en  *Engine
	pf  *profiler.Profiler
	rng *rand.Rand // randomized selection

	// monitorEvery is how often used caches' net benefit is rechecked for
	// the immediate-demotion rule of Section 4.5(a): every I/10 updates.
	// maxProfiling bounds a profiling phase, 2I updates, before selection
	// runs with whatever statistics are available.
	monitorEvery int
	maxProfiling int

	sinceReopt   int
	sinceMonitor int
	profiling    bool
	profilingFor int
	// readyCand caches the candidate whose shadow window statsReady last
	// found unfilled, so the per-update readiness poll during a profiling
	// phase re-checks one window instead of scanning all candidates. Purely
	// a memo: statsReady's answer is unchanged (see the invariant there).
	readyCand *cand
	// reoptCount drives the profiling duty cycle: a full profile — which
	// suspends used caches that deny subset candidates their probe stream
	// (Section 4.5(b)) — runs only every fullProfileEvery-th
	// re-optimization; the others profile only candidates whose probe
	// stream is unobstructed, bounding the throughput lost to profiling.
	reoptCount int

	// Epoch-memoized readiness poll: statsReady is called once per update
	// during a profiling phase, but its window-backed inputs change only at
	// profiler stats epochs. readyEpoch/readyEpochOK memoize a false answer
	// per epoch; unreadyPipe records the pipeline whose traffic-share early
	// exit blocked it (−1 when blocked on a window or shadow), the one input
	// that moves between epochs and must be re-checked per update.
	readyEpoch   int64
	readyEpochOK bool
	unreadyPipe  int

	// Re-optimization scratch, reused across intervals so a warm
	// re-optimization allocates nothing: the selection problem and
	// workspace, its group numbering (selection group per sharing group, −1
	// while unnumbered), and the chosen set.
	selWS     selection.Workspace
	selProb   selection.Problem
	selGroup  []int
	selList   []*cand
	chosenBuf []*cand

	// Adaptivity telemetry: cumulative wall nanos inside the re-optimizer
	// (monitor + profiling-phase transitions) and cost-model re-evaluations.
	reoptNanos   int64
	candRescores uint64
	// reopts counts selection runs; skippedReopts counts p-threshold skips.
	reopts, skippedReopts int
}

// newAdaptive builds the controller over en's candidates and starts the first
// profiling phase.
func newAdaptive(en *Engine) *adaptive {
	cfg := en.cfg
	pcfg := cfg.Profiler
	pcfg.Seed = cfg.Seed + 1
	a := &adaptive{
		en:           en,
		pf:           profiler.New(en.q, en.exec, en.meter, pcfg),
		rng:          rand.New(rand.NewSource(cfg.Seed)),
		monitorEvery: max(cfg.ReoptInterval/10, 1),
		maxProfiling: 2 * cfg.ReoptInterval,
		unreadyPipe:  -1,
	}
	if cfg.ReferenceAdaptivity {
		a.pf.DisableShadowSharing()
	}
	for _, c := range en.cands {
		c.slot = a.pf.AddSlot(c.spec)
	}
	a.startProfilingPhase()
	return a
}

// afterUpdates is the adaptivity bookkeeping owed after k processed updates
// to rel: rate ticks, the used-cache monitor and the re-optimization clock.
// The profiling arm is reachable only at k = 1: runLimit never admits a run
// while the controller profiles, and nothing a run's bookkeeping calls starts
// a phase before the re-optimization check at its end.
func (a *adaptive) afterUpdates(rel, k int) {
	a.pf.TickN(rel, k)
	a.sinceMonitor += k
	if a.sinceMonitor >= a.monitorEvery {
		a.sinceMonitor = 0
		tm := time.Now()
		a.monitorUsed()
		a.reoptNanos += time.Since(tm).Nanoseconds()
	}

	if a.profiling {
		a.profilingFor++
		if a.statsReady() || a.profilingFor >= a.maxProfiling {
			tm := time.Now()
			a.finishReopt()
			a.reoptNanos += time.Since(tm).Nanoseconds()
		}
		return
	}
	a.sinceReopt += k
	if a.sinceReopt >= a.en.cfg.ReoptInterval {
		a.sinceReopt = 0
		tm := time.Now()
		a.startReopt()
		a.reoptNanos += time.Since(tm).Nanoseconds()
	}
}

// runLimit caps a batched run to rel so that no observation point of the
// controller falls strictly inside it: the next rate-span boundary, the
// monitor and re-optimization intervals; profiling phases force fully serial
// processing so every update's statsReady check happens at its per-update
// position.
func (a *adaptive) runLimit(rel int) int {
	if a.profiling {
		return 1
	}
	return min(a.pf.TicksToSpan(rel), a.monitorEvery-a.sinceMonitor, a.en.cfg.ReoptInterval-a.sinceReopt)
}

// pause ends the current profiling phase: the engine is about to drop every
// cache and stop calling the controller (SetCachingPaused).
func (a *adaptive) pause() {
	a.stopShadows()
	a.profiling = false
	a.readyCand = nil
}

// resume restarts the clocks after a pause and begins a fresh profiling
// phase. The pause's updates were never ticked, so the open rate spans
// restart at the current meter reading instead of spanning the pause.
func (a *adaptive) resume() {
	a.sinceReopt = 0
	a.sinceMonitor = 0
	a.pf.RestartSpans()
	a.startProfilingPhase()
}

// startReopt begins a re-optimization (Section 4.5 steps 2–4): move
// candidates into the profiled state so their statistics can be
// (re)collected, suspending used caches only when they deny an unused
// subset candidate its full probe stream (Section 4.5(b)) — and only on
// full-profile rounds.
func (a *adaptive) startReopt() {
	a.reoptCount++
	a.startProfilingPhase()
}

// startProfilingPhase starts shadow estimators and enters the profiling
// state. On full-profile rounds, used caches covering a profiled subset
// candidate are suspended so the shadow sees the complete probe stream
// (Section 4.5(b)); on light rounds only unobstructed candidates profile,
// the rest keeping their previous estimates.
func (a *adaptive) startProfilingPhase() {
	en := a.en
	full := a.reoptCount%fullProfileEvery == 1 || a.reoptCount == 0
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
						a.pf.StartShadow(c.slot)
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
			en.instOf(c).Cache().ResetStats()
			continue
		}
		if !full && covered(c) {
			continue // estimate kept from the last full profile
		}
		c.state = Profiled
		a.pf.StartShadow(c.slot)
		c.shadowOn = true
	}
	a.profiling = true
	a.profilingFor = 0
	a.readyCand = nil
	a.readyEpochOK = false
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
//     moves with the raw tick counters; a.unreadyPipe records the pipeline
//     it blocked on (−1 when blocked on a window or shadow instead) and
//     exactly that one exit is re-checked per update. Sound because a
//     blocking window/shadow cannot fill without an epoch bump, and a
//     blocking pipeline's readiness can flip between epochs only through its
//     own traffic-share exit. ReferenceAdaptivity disables the gate.
//
//   - A cursor (a.readyCand) on the candidate last found unready, re-checked
//     first on a full scan. Sound because readiness is monotone within a
//     phase: shadow windows only fill, and candidate states change only at
//     phase boundaries (startReopt / finishReopt), which clear the cursor.
func (a *adaptive) statsReady() bool {
	en := a.en
	if !en.cfg.ReferenceAdaptivity && a.readyEpochOK && a.readyEpoch == a.pf.StatsEpoch() {
		if a.unreadyPipe < 0 || !a.pf.TrafficShareReady(a.unreadyPipe) {
			return false
		}
	}
	a.readyEpochOK = false
	if c := a.readyCand; c != nil {
		if c.state == Profiled && c.shadowOn {
			if _, ok := a.pf.ShadowMissProb(c.slot); !ok {
				a.noteUnready(-1)
				return false
			}
		}
		a.readyCand = nil
	}
	for i := 0; i < en.q.N(); i++ {
		if !a.pf.PipelineReady(i) {
			a.noteUnready(i)
			return false
		}
	}
	for _, c := range en.cands {
		if c.state != Profiled || !c.shadowOn {
			continue
		}
		if _, ok := a.pf.ShadowMissProb(c.slot); !ok {
			a.readyCand = c
			a.noteUnready(-1)
			return false
		}
	}
	return true
}

// noteUnready records a false readiness answer for the current stats epoch;
// pipe is the pipeline whose traffic-share exit blocked it, or −1 when the
// blocker was a window or shadow (which cannot fill without an epoch bump).
func (a *adaptive) noteUnready(pipe int) {
	a.readyEpoch = a.pf.StatsEpoch()
	a.readyEpochOK = true
	a.unreadyPipe = pipe
}

// finishReopt evaluates the cost model for every candidate, applies the
// p-threshold skip rule, runs offline selection, and installs the chosen
// cache set.
func (a *adaptive) finishReopt() {
	en := a.en
	a.profiling = false
	a.readyCand = nil
	a.readyEpochOK = false
	for _, c := range en.cands {
		if c.state == Used || c.shadowOn {
			c.est = a.estimate(c)
		}
		// Candidates skipped by a light profile keep their previous
		// estimate (possibly stale; the next full profile refreshes it).
	}
	if !a.changedBeyondThreshold() {
		a.skippedReopts++
		a.stopShadows()
		return
	}
	a.reopts++
	a.applySelection(a.runSelection())
	a.stopShadows()
	en.allocateMemory()
	for _, c := range en.cands {
		c.selEst = c.est
		c.selSet = true
	}
}

func (a *adaptive) stopShadows() {
	for _, c := range a.en.cands {
		if c.state == Profiled {
			a.pf.StopShadow(c.slot)
			c.state = Unused
		}
		c.shadowOn = false
	}
}

// estimate evaluates the cost model for a candidate: used caches supply
// their directly observed miss probability, profiled ones their shadow
// estimate (Section 4.3).
func (a *adaptive) estimate(c *cand) profiler.Estimate {
	a.candRescores++
	var missProb float64
	var distinct float64
	switch c.state {
	case Used:
		inst := a.en.instOf(c)
		st := inst.Cache().Stats()
		if st.Probes > 0 {
			missProb = float64(st.Misses) / float64(st.Probes)
		}
		distinct = float64(inst.Cache().Entries())
	default:
		missProb, _ = a.pf.ShadowMissProb(c.slot)
		distinct, _ = a.pf.ShadowDistinct(c.slot)
	}
	return a.pf.Estimate(c.spec, missProb, distinct)
}

// changedBeyondThreshold implements the p-threshold of Section 4.5(c):
// selection reruns only when some used or profiled cache's benefit or cost
// moved more than the configured fraction since the last selection.
func (a *adaptive) changedBeyondThreshold() bool {
	const p = changeThreshold
	for _, c := range a.en.cands {
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
// the configured offline algorithm. Selection groups are numbered in order
// of each sharing group's first ready candidate. The problem, candidate
// list, group numbering, and algorithm workspace all live on the controller
// and are reused, so a warm selection allocates nothing;
// ReferenceAdaptivity rebuilds them from scratch each time (identical
// results, the reuse's differential foil). The returned slice is valid
// until the next selection.
func (a *adaptive) runSelection() []*cand {
	en := a.en
	if en.cfg.ReferenceAdaptivity {
		a.selProb, a.selWS, a.selGroup, a.selList = selection.Problem{}, selection.Workspace{}, nil, nil
	}
	if a.selGroup == nil {
		a.selGroup = make([]int, len(en.groups))
	}
	prob, ws, selGroup, list := &a.selProb, &a.selWS, a.selGroup, a.selList[:0]
	for i := range selGroup {
		selGroup[i] = -1
	}
	n := en.q.N()
	if cap(prob.OpCosts) < n {
		prob.OpCosts = make([][]float64, n)
	}
	prob.OpCosts = prob.OpCosts[:n]
	for i := 0; i < n; i++ {
		costs := prob.OpCosts[i][:0]
		for j := range en.ord[i] {
			costs = append(costs, a.pf.OpCost(i, j))
		}
		prob.OpCosts[i] = costs
	}
	prob.Cands = prob.Cands[:0]
	prob.GroupCosts = prob.GroupCosts[:0]
	for _, c := range en.cands {
		if !c.est.Ready {
			continue
		}
		gid := selGroup[c.group]
		if gid < 0 {
			gid = len(prob.GroupCosts)
			selGroup[c.group] = gid
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
	a.selList = list
	var res selection.Result
	switch {
	case en.cfg.BudgetAware && en.mem.Budget() >= 0:
		// Integrated selection under the memory budget (extension; the
		// paper's modular pipeline is the default).
		bp := &selection.BudgetedProblem{Problem: *prob, Budget: float64(en.mem.Budget())}
		bp.GroupBytes = make([]float64, len(prob.GroupCosts))
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
		res, err = selection.Randomized(prob, a.rng)
		if err != nil {
			res = ws.Greedy(prob)
		}
	default:
		res = ws.Select(prob)
	}
	chosen := a.chosenBuf[:0]
	for _, i := range res.Chosen {
		chosen = append(chosen, list[i])
	}
	a.chosenBuf = chosen
	return chosen
}

// applySelection moves the engine to the chosen cache set: detach used
// caches that fell out, attach newly chosen ones (sharing instances by
// identity).
func (a *adaptive) applySelection(chosen []*cand) {
	en := a.en
	for _, c := range en.cands {
		if (c.state == Used || c.suspended) && !slices.Contains(chosen, c) {
			if c.suspended {
				a.pf.StopShadow(c.slot)
			}
			en.detach(c)
		}
	}
	for _, c := range chosen {
		if c.state == Used {
			continue
		}
		if c.state == Profiled {
			a.pf.StopShadow(c.slot)
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
			st := en.instOf(c).Cache().Stats()
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
		inst := en.instanceFor(c, buckets)
		if err := en.exec.AttachCache(c.spec, inst); err != nil {
			// The executor enforces constraints the selection does not
			// model — notably that a cache span must not swallow another
			// cache's maintenance operator (possible with self-maintained
			// segments). Skip the placement; the next re-optimization may
			// order the attachments differently.
			if inst.Cache().Entries() == 0 {
				en.release(c) // a fresh instance that never attached
			}
			c.state = Unused
			continue
		}
		c.warmed = false
		c.state = Used
		c.warmProbes = 3 * int64(c.est.ExpectedEntries)
		if c.warmProbes < 100 {
			c.warmProbes = 100
		}
		st := inst.Cache().Stats()
		c.monStat = monitorSnapshot{probes: st.Probes, hits: st.Hits}
	}
}

// monitorUsed implements Section 4.5(a): benefit(C) − cost(C) is monitored
// continuously for used caches via their live hit statistics, and a cache
// whose group turns unprofitable is moved to Unused immediately. (Gradual
// reaction — promoting unused caches — happens only at re-optimization.)
// A group is judged on its members this pass re-estimated (c.judged),
// groups in order of their first such member.
func (a *adaptive) monitorUsed() {
	en := a.en
	for _, c := range en.cands {
		c.judged = false
		if c.state != Used {
			continue
		}
		inst := en.instOf(c)
		st := inst.Cache().Stats()
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
		if dp < int64(a.pf.W()) {
			continue // too few probes since the last check to judge
		}
		missProb := 1 - float64(dh)/float64(dp)
		c.monStat = monitorSnapshot{probes: st.Probes, hits: st.Hits}
		a.candRescores++
		est := a.pf.Estimate(c.spec, missProb, float64(inst.Cache().Entries()))
		if !est.Ready {
			continue
		}
		c.est = est
		c.judged = true
	}
	// Evaluate per sharing group: benefits add up, cost is paid once.
	for _, c := range en.cands {
		if !c.judged {
			continue
		}
		g := &en.groups[c.group]
		if net, lead := g.net(judged); lead != c || net >= 0 {
			continue
		}
		for _, d := range g.members {
			if d.judged {
				d.demotions++
				en.detach(d)
			}
		}
	}
}

func judged(c *cand) bool { return c.judged }
