// Package profiler implements A-Caching's Profiler component (Figure 4,
// Section 4.3, Appendix A): online estimation of per-operator tuple rates
// d_ij and per-tuple costs c_ij from sampled full-pipeline profiling, stream
// rates rate(R_i), and cache miss probabilities — observed directly for used
// caches, and estimated with Bloom-filter distinct counting over shadow
// CacheLookup taps for caches not in use. Every statistic is the average of
// its W most recent measurements (Table 1).
package profiler

import (
	"math/rand"
	"slices"

	"acache/internal/bloom"
	"acache/internal/cost"
	"acache/internal/join"
	"acache/internal/planner"
	"acache/internal/query"
	"acache/internal/stats"
	"acache/internal/stream"
	"acache/internal/tuple"
)

// Config holds the profiler's tuning parameters, with the paper's defaults.
type Config struct {
	// W is the estimation window: every statistic is the mean of its W
	// most recent observations (default 10, Section 7.1).
	W int
	// Wd is the Bloom window: miss probability is estimated per
	// nonoverlapping window of Wd probe keys (Appendix A).
	Wd int
	// SampleProb is p_i: the probability of profiling a tuple's complete
	// pipeline processing.
	SampleProb float64
	// RateSpan is the number of updates per rate(R_i) measurement span.
	RateSpan int
	// PaperMissEstimator makes ShadowMissProb return the paper's
	// Appendix-A per-window estimate instead of the retention-aware
	// refinement — an ablation switch (see DESIGN.md deviation 2).
	PaperMissEstimator bool
	// Seed makes sampling reproducible.
	Seed int64
}

// bloomAlpha sizes a shadow's Bloom filter at bloomAlpha × Wd bits
// (Appendix A's α).
const bloomAlpha = 4

// Defaults fills zero fields with the paper's defaults.
func (c Config) withDefaults() Config {
	if c.W == 0 {
		c.W = 10
	}
	if c.Wd == 0 {
		c.Wd = 100
	}
	if c.SampleProb == 0 {
		c.SampleProb = 0.02
	}
	if c.RateSpan == 0 {
		c.RateSpan = 50
	}
	return c
}

// pipeStats holds one pipeline's per-operator windows.
type pipeStats struct {
	delta []*stats.Window // δ_j per position; index n−1 = pipeline outputs
	tau   []*stats.Window // τ_j per operator
	rate  *stats.RateEstimator
	spanN int
	spanT float64 // simulated seconds at span start
}

// Profiler maintains online statistics for one executor.
type Profiler struct {
	q     *query.Query
	e     *join.Exec
	meter *cost.Meter
	cfg   Config
	rng   *rand.Rand

	pipes []*pipeStats
	// streams[slot] is the probe stream of the placement registered at that
	// slot (AddSlot), and shadows[slot] its running estimator (nil while
	// none); slots on one probe stream share one shadow (see StartShadow).
	streams []probeStream
	shadows []*shadow
	// unshared gives every spec its own shadow (DisableShadowSharing).
	unshared   bool
	totalTicks int64
	relTicks   []int64

	// statsEpoch counts statistic observations: it is bumped whenever a
	// value any readiness or estimate check reads can have changed — a
	// rate-span boundary, a profiled-update Observe, a shadow window
	// completing, or a shadow starting or stopping.
	// Between equal epochs, every window-backed statistic is
	// bitwise unchanged, which lets the engine answer its per-update
	// readiness poll from a memo instead of rescanning (the traffic-share
	// early exit of PipelineReady is the one non-epoch input; the engine
	// rechecks it separately).
	statsEpoch int64
	// sampledUpdates counts updates that drew a profiling decision.
	sampledUpdates uint64
	// shadowPool recycles stopped shadow estimators (their Bloom filters
	// and windows are the profiling phase's only per-phase allocations).
	shadowPool []*shadow
	// scopeBuf is Estimate's scratch for the widened GC maintenance scope.
	scopeBuf []int
}

// New creates a profiler over the executor.
func New(q *query.Query, e *join.Exec, meter *cost.Meter, cfg Config) *Profiler {
	cfg = cfg.withDefaults()
	pf := &Profiler{
		q:     q,
		e:     e,
		meter: meter,
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
	pf.pipes = make([]*pipeStats, q.N())
	for i := range pf.pipes {
		pf.pipes[i] = newPipeStats(q.N(), cfg)
	}
	pf.relTicks = make([]int64, q.N())
	return pf
}

func newPipeStats(n int, cfg Config) *pipeStats {
	ps := &pipeStats{rate: stats.NewRateEstimator(cfg.W)}
	for j := 0; j < n; j++ {
		ps.delta = append(ps.delta, stats.NewWindow(cfg.W))
	}
	for j := 0; j < n-1; j++ {
		ps.tau = append(ps.tau, stats.NewWindow(cfg.W))
	}
	return ps
}

// DisableShadowSharing gives every spec its own shadow estimator instead of
// one per probe stream. Estimates and meter charges are identical either
// way; this is the differential foil of core's ReferenceAdaptivity.
func (pf *Profiler) DisableShadowSharing() { pf.unshared = true }

// W returns the configured estimation window.
func (pf *Profiler) W() int { return pf.cfg.W }

// ShouldProfile decides whether the next update to rel is profiled: every
// update draws, with probability SampleProb.
func (pf *Profiler) ShouldProfile(rel int) bool {
	pf.sampledUpdates++
	return pf.rng.Float64() < pf.cfg.SampleProb
}

// SampledUpdates returns how many updates drew a profiling decision.
func (pf *Profiler) SampledUpdates() uint64 { return pf.sampledUpdates }

// StatsEpoch returns the statistics-observation counter (see the field).
// Equal epochs guarantee every windowed statistic is unchanged.
func (pf *Profiler) StatsEpoch() int64 { return pf.statsEpoch }

// TickN records k consecutive updates to rel for rate estimation. Call it for
// every update, profiled or not, after processing (k = 1), or once per
// batched run: span boundaries read the shared cost meter, so the caller
// guarantees k ≤ TicksToSpan(rel), which the engine's batch driver does by
// capping run lengths there. At most one span boundary can then fire, at the
// end, after every charge of the run is already in the meter — exactly where
// the serial loop's boundary tick would observe it.
func (pf *Profiler) TickN(rel, k int) {
	pf.totalTicks += int64(k)
	pf.relTicks[rel] += int64(k)
	ps := pf.pipes[rel]
	ps.spanN += k
	if ps.spanN >= pf.cfg.RateSpan {
		now := cost.Seconds(pf.meter.Total())
		ps.rate.ObserveSpan(ps.spanN, now-ps.spanT)
		ps.spanN = 0
		ps.spanT = now
		pf.statsEpoch++
	}
}

// RestartSpans opens a fresh rate span on every relation at the current
// meter reading, dropping the partial ones. A caller that stopped ticking for
// a while (a paused engine) calls it before ticking again: the open span
// would otherwise divide the ticks after the gap by the time of the whole
// gap.
func (pf *Profiler) RestartSpans() {
	now := cost.Seconds(pf.meter.Total())
	for _, ps := range pf.pipes {
		ps.spanN = 0
		ps.spanT = now
	}
}

// TicksToSpan returns how many more Ticks to rel can happen before a
// rate-span boundary is observed, always ≥ 1 (spanN resets to zero at each
// boundary). The boundary tick reads the shared cost meter, so the engine's
// batch driver caps run lengths with this: a span boundary may coincide with
// a run's final tick — where every charge of the run is already in, exactly
// as in per-update processing — but never falls strictly inside one.
func (pf *Profiler) TicksToSpan(rel int) int {
	return pf.cfg.RateSpan - pf.pipes[rel].spanN
}

// Observe feeds one profiled update's per-operator measurements.
func (pf *Profiler) Observe(rel int, prof join.Profile) {
	ps := pf.pipes[rel]
	for j, d := range prof.StepInputs {
		ps.delta[j].Observe(float64(d))
	}
	for j, u := range prof.StepUnits {
		ps.tau[j].Observe(cost.Seconds(u))
	}
	pf.statsEpoch++
}

// Rate returns the estimated updates/second of ΔR_rel.
func (pf *Profiler) Rate(rel int) float64 { return pf.pipes[rel].rate.Rate() }

// D returns d at (pipeline, position): tuples per second entering operator
// pos (position n−1 reads the pipeline's output rate). Appendix A:
// d_ij = rate(R_i) × mean(δ_j).
func (pf *Profiler) D(pipe, pos int) float64 {
	return pf.Rate(pipe) * pf.pipes[pipe].delta[pos].Mean()
}

// C returns c_ij: seconds of work per tuple processed by operator pos of
// pipeline pipe. Appendix A: c_ij = sum(τ_j)/sum(δ_j).
func (pf *Profiler) C(pipe, pos int) float64 {
	d := pf.pipes[pipe].delta[pos].Sum()
	if d <= 0 {
		return 0
	}
	return pf.pipes[pipe].tau[pos].Sum() / d
}

// OpCost returns d_ij × c_ij: the unit-time processing cost of the operator,
// the quantity the selection problem's minimization form covers.
func (pf *Profiler) OpCost(pipe, pos int) float64 { return pf.D(pipe, pos) * pf.C(pipe, pos) }

// PipelineReady reports whether pipeline pipe has W observations for every
// operator statistic and a full rate window (Section 4.5 step 2). A
// pipeline whose relation sees a negligible share of the update traffic is
// treated as ready with (near-)zero rates — a dimension table that never
// changes would otherwise never fill its windows and would block every
// estimate touching it, even though its contribution to any cost is
// bounded by its traffic share.
func (pf *Profiler) PipelineReady(pipe int) bool {
	if pf.TrafficShareReady(pipe) {
		return true
	}
	ps := pf.pipes[pipe]
	if !ps.rate.Ready() {
		return false
	}
	for _, w := range ps.delta {
		if !w.Full() {
			return false
		}
	}
	return true
}

// TrafficShareReady reports PipelineReady's negligible-traffic early exit in
// isolation: a pipeline whose relation sees under a 2% share of a
// long-enough update stream is ready by fiat. Unlike every window-backed
// statistic it moves with the raw tick counters — between equal StatsEpochs
// it is the only input that can flip a readiness answer, so the engine's
// epoch-memoized readiness poll rechecks exactly this per update.
func (pf *Profiler) TrafficShareReady(pipe int) bool {
	return pf.totalTicks > 20*int64(pf.cfg.RateSpan) &&
		pf.relTicks[pipe]*50 < pf.totalTicks
}

// shadow estimates the miss probability of a cache not in use from a
// CacheLookup-position tap over the full probe-key stream (Appendix A).
//
// Two estimators are maintained per window of Wd probes:
//
//   - the paper's: each key is hashed into a per-window Bloom filter of
//     Alpha×Wd bits; the set-bit count b estimates the window's distinct
//     keys and b/Wd its miss probability ("each distinct key misses once,
//     then it is cached");
//   - a retention-aware refinement used for decisions: since resident
//     entries survive across windows under incremental maintenance, a
//     steady-state probe only misses the first time its key is EVER seen,
//     so misses are counted against a long-horizon filter instead. The
//     paper's estimator systematically overestimates misses for long-lived
//     caches (e.g. keys cycling with period > Wd); the refinement stays
//     optimistic instead, which the engine's continuous monitoring corrects
//     cheaply after adoption (Section 4.5(a)) — mispredicting toward "try
//     the cache" is the cheap direction, as adding and dropping caches is
//     nearly free.
//
// The horizon filter doubles as the distinct-key population estimate for
// memory sizing. The first window is treated as warm-up and not recorded.
//
// Both estimates depend only on the probe stream — pipeline, lookup position
// and key columns — so one shadow serves every candidate on that stream;
// refs counts those sharers.
type shadow struct {
	pf *Profiler
	// tap is observe bound once per pooled shadow, so starting a shadow
	// allocates no closure.
	tap   func(batch []tuple.Tuple, op stream.Op)
	tapID int
	probeStream
	refs        int
	keyBuf      []byte // packed-key scratch, reused across tap batches
	filter      *bloom.Filter
	horizon     *bloom.Filter
	seen        int
	newKeys     int
	warm        bool
	windows     int           // completed windows since shadow start
	missWin     *stats.Window // retention-aware (decision) estimate
	windowedWin *stats.Window // the paper's per-window estimate
	distinct    *stats.Window
}

// shadowMaxWindows caps how long a shadow keeps refining a still-falling
// miss estimate before it is declared ready regardless (large key domains
// decay slowly; at some point the engine must decide with what it has).
const shadowMaxWindows = 40

// probeStream is what a cache placement's shadow observes: the CacheLookup
// position (pipeline, start) and the probe key's columns in the schema
// arriving there.
type probeStream struct {
	pipe, start int
	cols        []int
}

// AddSlot registers a candidate placement and returns its slot, the handle
// StartShadow, StopShadow, ShadowMissProb and ShadowDistinct take. The
// placement's probe stream is resolved here, once.
func (pf *Profiler) AddSlot(spec *planner.Spec) int {
	cols := pf.q.RepresentativeCols(pf.schemaAt(spec.Pipeline, spec.Start), spec.KeyClasses)
	pf.streams = append(pf.streams, probeStream{pipe: spec.Pipeline, start: spec.Start, cols: cols})
	pf.shadows = append(pf.shadows, nil)
	return len(pf.shadows) - 1
}

// StartShadow installs the shadow estimator for a slot's placement. It is a
// no-op if one is already running. A slot whose probe stream already has a
// shadow that has seen no key yet joins it: that shadow's estimates are
// exactly the ones a fresh shadow of its own would produce, so sharing is
// invisible to every decision (a stream whose shadow has begun observing
// gets a second, fresh one). Stopped shadows are recycled from a pool
// (filters and windows reset, tap closure kept), so the profiling phases of
// a warm engine allocate nothing here.
func (pf *Profiler) StartShadow(slot int) {
	if pf.shadows[slot] != nil {
		return
	}
	ps := pf.streams[slot]
	sh := pf.pristineShadow(ps)
	if sh == nil {
		sh = pf.newShadow()
		sh.probeStream = ps
		sh.warm = true
		sh.tapID = pf.e.Tap(sh.pipe, sh.start, sh.tap)
	}
	sh.refs++
	pf.shadows[slot] = sh
	pf.statsEpoch++
}

// pristineShadow finds a running shadow on the probe stream ps that has not
// seen a key yet, or returns nil. There is at most one:
// a second shadow on a stream is only ever started once the first has
// observed something.
func (pf *Profiler) pristineShadow(ps probeStream) *shadow {
	if pf.unshared {
		return nil
	}
	for _, sh := range pf.shadows {
		if sh != nil && sh.warm && sh.seen == 0 && sh.pipe == ps.pipe && sh.start == ps.start && slices.Equal(sh.cols, ps.cols) {
			return sh
		}
	}
	return nil
}

// newShadow takes a reset shadow from the pool, or builds one.
func (pf *Profiler) newShadow() *shadow {
	if n := len(pf.shadowPool); n > 0 {
		sh := pf.shadowPool[n-1]
		pf.shadowPool = pf.shadowPool[:n-1]
		return sh
	}
	sh := &shadow{
		pf:          pf,
		filter:      bloom.New(bloomAlpha*pf.cfg.Wd, 1),
		horizon:     bloom.New(1<<16, 2),
		missWin:     stats.NewWindow(pf.cfg.W),
		windowedWin: stats.NewWindow(pf.cfg.W),
		distinct:    stats.NewWindow(pf.cfg.W),
	}
	sh.tap = sh.observe
	return sh
}

// observe is the shadow's CacheLookup tap. One hash per key feeds both
// filters (their probe positions derive from the same base pair), and the
// whole batch's hash work is charged in one ChargeN — once per sharer, as
// if each ran its own shadow: no meter read can interleave inside a tap
// callback, so simulated time at every observation point is identical to
// per-tuple, per-candidate charging.
func (sh *shadow) observe(batch []tuple.Tuple, _ stream.Op) {
	pf := sh.pf
	perKey := sh.filter.Hashes() + sh.horizon.Hashes()
	for _, t := range batch {
		sh.keyBuf = tuple.AppendKey(sh.keyBuf[:0], t, sh.cols)
		h1, h2 := bloom.HashBytes(sh.keyBuf)
		sh.filter.AddHash(h1, h2)
		if !sh.horizon.AddHash(h1, h2) {
			sh.newKeys++
		}
		sh.seen++
		if sh.seen >= pf.cfg.Wd {
			if !sh.warm {
				sh.missWin.Observe(minF(1, float64(sh.newKeys)/float64(pf.cfg.Wd)))
				sh.windows++
			}
			sh.warm = false
			b := float64(sh.filter.SetBits())
			sh.windowedWin.Observe(minF(1, b/float64(pf.cfg.Wd)))
			sh.distinct.Observe(sh.filter.EstimateDistinct())
			sh.filter.Reset()
			sh.seen = 0
			sh.newKeys = 0
			pf.statsEpoch++
		}
	}
	pf.meter.ChargeN(cost.BloomHash, perKey*len(batch)*sh.refs)
}

// StopShadow removes a slot's shadow estimator, keeping nothing. When its
// last sharer stops, the estimator's tap is removed and its filters and
// windows are reset and pooled for the next StartShadow.
func (pf *Profiler) StopShadow(slot int) {
	sh := pf.shadows[slot]
	if sh == nil {
		return
	}
	pf.shadows[slot] = nil
	pf.statsEpoch++
	if sh.refs--; sh.refs > 0 {
		return
	}
	pf.e.RemoveTap(sh.tapID)
	sh.filter.Reset()
	sh.horizon.Reset()
	sh.missWin.Reset()
	sh.windowedWin.Reset()
	sh.distinct.Reset()
	sh.seen, sh.newKeys, sh.windows = 0, 0, 0
	sh.cols = nil
	pf.shadowPool = append(pf.shadowPool, sh)
}

// ShadowMissProb returns the shadow's miss-probability estimate and whether
// it is trustworthy. The reported value is the mean of the most recent
// windows: as the horizon filter fills, the first-time-key rate decays
// toward the true steady-state miss probability, so the newest observations
// are the best ones. The estimate is ready once it has a full window buffer
// AND has stopped falling rapidly (or the refinement cap is reached) — a
// still-decaying estimate would bias the selection against long-lived
// caches over large key domains.
func (pf *Profiler) ShadowMissProb(slot int) (float64, bool) {
	sh := pf.shadows[slot]
	if sh == nil {
		return 0, false
	}
	if pf.cfg.PaperMissEstimator {
		return sh.windowedWin.Mean(), sh.windowedWin.Full()
	}
	recent := sh.missWin.RecentMean(3)
	if !sh.missWin.Full() {
		return recent, false
	}
	stable := recent >= 0.7*sh.missWin.Mean() || sh.windows >= shadowMaxWindows
	return recent, stable
}

// ShadowDistinct returns the long-horizon distinct-key estimate: the
// expected number of cache entries, used for memory sizing (Section 4.3).
func (pf *Profiler) ShadowDistinct(slot int) (float64, bool) {
	sh := pf.shadows[slot]
	if sh == nil {
		return 0, false
	}
	return sh.horizon.EstimateDistinct(), sh.missWin.Len() > 0
}

func (pf *Profiler) schemaAt(pipe, pos int) *tuple.Schema {
	s := pf.q.Schema(pipe)
	for _, r := range pf.e.Ordering()[pipe][:pos] {
		s = s.Concat(pf.q.Schema(r))
	}
	return s
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
