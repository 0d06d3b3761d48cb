// Package core implements A-Caching (Sections 4–6): the adaptive engine that
// ties the Executor, Profiler, and Re-optimizer together (Figure 4). It
// maintains candidate caches in the Used / Profiled / Unused state machine of
// Section 4.5, estimates their benefits and costs online, re-optimizes at a
// configurable interval with a change-threshold guard, reacts immediately
// when a used cache turns unprofitable, allocates memory by priority
// (Section 5), and optionally extends the candidate space with
// globally-consistent caches (Section 6).
package core

import (
	"math/rand"
	"slices"
	"strings"
	"time"

	"acache/internal/cost"
	"acache/internal/join"
	"acache/internal/memory"
	"acache/internal/ordering"
	"acache/internal/planner"
	"acache/internal/profiler"
	"acache/internal/query"
	"acache/internal/selection"
	"acache/internal/stream"
	"acache/internal/tuple"
)

// State is a candidate cache's state (Section 4.5).
type State int

const (
	// Unused: neither used nor being profiled.
	Unused State = iota
	// Profiled: statistics are being collected (shadow estimator active).
	Profiled
	// Used: spliced into its pipeline and probed during join processing.
	Used
)

func (s State) String() string {
	switch s {
	case Used:
		return "used"
	case Profiled:
		return "profiled"
	default:
		return "unused"
	}
}

// SelectionMode picks the offline selection algorithm (for ablations;
// Auto follows the paper's implementation).
type SelectionMode int

const (
	// SelectAuto: optimal DP without sharing, exhaustive for small m,
	// greedy beyond (Section 4.4).
	SelectAuto SelectionMode = iota
	// SelectExhaustive forces exhaustive search.
	SelectExhaustive
	// SelectGreedy forces the Appendix-B greedy approximation.
	SelectGreedy
	// SelectRandomized forces the LP randomized-rounding approximation.
	SelectRandomized
)

// Config tunes the engine. Zero values select the paper's defaults.
type Config struct {
	// Profiler configures online estimation (W = 10 etc.).
	Profiler profiler.Config
	// ReoptInterval is I: updates processed between re-optimizations
	// (default 10 000; Section 7.4 uses 10 000 tuples, Section 7.1 two
	// seconds).
	ReoptInterval int
	// MonitorInterval is how often used caches' net benefit is rechecked
	// for the immediate-demotion rule of Section 4.5(a) (default I/10).
	MonitorInterval int
	// ChangeThreshold is p: re-optimization is skipped unless some used or
	// profiled cache's benefit or cost moved by more than this fraction
	// (default 0.2, Section 4.5(c)).
	ChangeThreshold float64
	// GCQuota is m: the maximum number of candidate caches considered when
	// globally-consistent caches are enabled (Section 6). 0 disables GC
	// candidates.
	GCQuota int
	// MemoryBudget is the bytes available for caches; ≤ 0 is unlimited
	// (Section 5, Figure 13) — withDefaults maps 0 to −1.
	MemoryBudget int
	// DisableCaching runs a plain MJoin (the baseline M of Section 7.3).
	DisableCaching bool
	// ForcedCaches, when non-empty, pins exactly these caches in place and
	// disables adaptive selection — Figures 6–8 force the single candidate
	// cache to be used.
	ForcedCaches []*planner.Spec
	// Selection picks the offline algorithm.
	Selection SelectionMode
	// BudgetAware integrates the memory budget into selection itself
	// (choose the best cache set that fits) instead of the paper's modular
	// select-then-allocate pipeline — the integrated problem the paper
	// defers to future work. Only meaningful with a finite MemoryBudget.
	BudgetAware bool
	// MaxProfilingUpdates bounds the profiling phase before selection runs
	// with whatever statistics are available (default 2 × ReoptInterval).
	MaxProfilingUpdates int
	// Seed drives sampling and randomized selection.
	Seed int64
	// ScanOnly forwards index-free attributes to the executor (Figure 10).
	ScanOnly []tuple.Attr
	// StoreProvider, when non-nil, lets a host (the Server) substitute
	// cross-query shared window stores for this engine's relations at build
	// time. See join.Options.StoreProvider.
	StoreProvider join.StoreProvider
	// RelTokens, when non-nil, gives each relation a host-scope identity
	// token (stream name, arity, window shape). They anchor the cross-query
	// canonical cache identities (planner.CrossID) that a hosting server
	// pools benefit accounting over; without them, cache groups are private
	// to this engine.
	RelTokens []string
	// ReferenceAdaptivity disables the adaptivity fast paths — the
	// epoch-memoized readiness poll, reusable selection workspaces, and one
	// shadow estimator per probe stream — so every poll and selection
	// recomputes from scratch and every profiled candidate runs its own
	// shadow. Decisions, cost figures, and results
	// are identical either way; this exists for differential testing
	// (TestReferenceAdaptivityDifferential).
	ReferenceAdaptivity bool
}

func (c Config) withDefaults() Config {
	if c.ReoptInterval == 0 {
		c.ReoptInterval = 10_000
	}
	if c.MonitorInterval == 0 {
		c.MonitorInterval = c.ReoptInterval / 10
		if c.MonitorInterval == 0 {
			c.MonitorInterval = 1
		}
	}
	if c.ChangeThreshold == 0 {
		c.ChangeThreshold = 0.2
	}
	if c.MemoryBudget == 0 {
		c.MemoryBudget = -1
	}
	if c.MaxProfilingUpdates == 0 {
		c.MaxProfilingUpdates = 2 * c.ReoptInterval
	}
	return c
}

// placementKey identifies one candidate placement (memoized on the spec).
func placementKey(s *planner.Spec) string { return s.Key() }

// cand tracks one candidate placement's state and statistics.
type cand struct {
	spec  *planner.Spec
	state State
	// est is the latest cost-model evaluation.
	est profiler.Estimate
	// selEst is the evaluation at the last selection, for the p-threshold.
	selEst profiler.Estimate
	selSet bool
	// shadowOn marks a live shadow estimator for this profiling phase;
	// candidates without one keep their previous estimate.
	shadowOn bool
	inst     *join.Instance // non-nil while Used
	// warmProbes is how many probes the monitor lets pass before judging
	// the cache (a fresh cache starts empty and needs roughly its expected
	// entry population in probes before its miss rate reflects steady
	// state).
	warmProbes int64
	warmed     bool
	// suspended marks a previously-used cache whose lookup is withdrawn
	// for the profiling phase while its instance stays maintained
	// (Section 4.5(b)); it resumes warm if re-selected.
	suspended bool
	monStat   monitorSnapshot
	demotions int
}

type monitorSnapshot struct {
	probes, hits int64
}

// Engine is the adaptive stream-join engine.
type Engine struct {
	q     *query.Query
	cfg   Config
	meter *cost.Meter
	exec  *join.Exec
	ord   planner.Ordering // fixed at build time; never reordered
	pf    *profiler.Profiler
	mem   *memory.Manager
	rng   *rand.Rand

	cands map[string]*cand // by placementKey
	// sorted holds the same candidates in placement-key order: the
	// iteration order of every walk whose result depends on order
	// (selection ties, group benefit sums, pooled demand), so telemetry and
	// decisions are reproducible across runs. The set is fixed at build
	// time, by buildCandidates or attachForced.
	sorted    []*cand
	instances map[string]*join.Instance // by SharingID, for Used caches

	updates      int
	sinceReopt   int
	sinceMonitor int
	profiling    bool
	profilingFor int
	// allocateMemory's scratch, reused so a host server's periodic
	// rebalance allocates nothing at steady state.
	allocInfos  map[string]allocInfo
	allocReqs   []memory.Request
	allocGrants map[string]int
	// MemoryDemandDetail's scratch plus the CrossID memo (keyed by the
	// engine-local SharingID, which pins the cross-query identity for a
	// fixed Config.RelTokens).
	demandDetail    []GroupDemand
	demandDetailIdx map[string]int
	crossIDs        map[string]string
	// pausedCaching suspends all adaptivity (profiling, monitoring,
	// re-optimization) with caches dropped — the overload degradation
	// ladder's first rung (see SetCachingPaused).
	pausedCaching bool
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
	// workspace, the chosen set, and monitorUsed's group table.
	selWS       selection.Workspace
	selProb     selection.Problem
	selGroupIDs map[string]int
	selList     []*cand
	chosenBuf   []*cand
	inChosenBuf map[*cand]bool
	monIdx      map[string]int
	monEvals    []groupEval

	// Adaptivity telemetry: cumulative wall nanos inside the re-optimizer
	// (monitor + profiling-phase transitions) and cost-model re-evaluations.
	reoptNanos   int64
	candRescores uint64

	outputs uint64
	// Reopts counts selection runs; SkippedReopts counts p-threshold skips.
	reopts, skippedReopts int

	// resultSinks receive canonicalized join-result deltas.
	resultSinks []func(insert bool, result []tuple.Value)
}

// NewEngine builds an engine for q with the given pipeline ordering, fixed
// for the engine's life (nil for the join-graph ordering,
// ordering.FromJoinGraph).
func NewEngine(q *query.Query, ord planner.Ordering, cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if ord == nil {
		ord = ordering.FromJoinGraph(q)
	}
	meter := &cost.Meter{}
	exec, err := join.NewExec(q, ord, meter, join.Options{ScanOnly: cfg.ScanOnly, StoreProvider: cfg.StoreProvider})
	if err != nil {
		return nil, err
	}
	cfg.Profiler.Seed = cfg.Seed + 1
	pf := profiler.New(q, exec, meter, cfg.Profiler)
	if cfg.ReferenceAdaptivity {
		pf.DisableShadowSharing()
	}
	en := &Engine{
		q:           q,
		cfg:         cfg,
		meter:       meter,
		exec:        exec,
		ord:         exec.Ordering(),
		pf:          pf,
		mem:         memory.NewManager(cfg.MemoryBudget),
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		cands:       make(map[string]*cand),
		instances:   make(map[string]*join.Instance),
		unreadyPipe: -1,
	}
	if len(cfg.ForcedCaches) > 0 {
		if err := en.attachForced(); err != nil {
			return nil, err
		}
	} else if !cfg.DisableCaching {
		en.buildCandidates()
		en.startProfilingPhase()
	}
	return en, nil
}

// Meter exposes the engine's cost meter.
func (en *Engine) Meter() *cost.Meter { return en.meter }

// Exec exposes the executor (stores, ordering) for tests and tools.
func (en *Engine) Exec() *join.Exec { return en.exec }

// OnResult registers a callback receiving every join-result delta in
// canonical column order (relations ascending, each relation's schema
// order), with insert = true for additions and false for retractions. The
// result slice is the engine's row buffer: it is valid only for the duration
// of the callback and overwritten by the next result, so a callback that
// keeps a row copies it. The callback runs synchronously inside update
// processing and must not call back into the engine.
func (en *Engine) OnResult(f func(insert bool, result []tuple.Value)) {
	en.resultSinks = append(en.resultSinks, f)
	if len(en.resultSinks) == 1 {
		en.installResultTaps()
	}
}

// installResultTaps wires an output-position tap on every pipeline that
// canonicalizes and fans out to the registered sinks.
func (en *Engine) installResultTaps() {
	n := en.q.N()
	for pipe := 0; pipe < n; pipe++ {
		// Canonicalization columns for this pipeline's output schema.
		schema := en.q.Schema(pipe)
		for _, r := range en.ord[pipe] {
			schema = schema.Concat(en.q.Schema(r))
		}
		var cols []int
		for rel := 0; rel < n; rel++ {
			for _, a := range en.q.Schema(rel).Cols() {
				cols = append(cols, schema.MustColOf(a))
			}
		}
		out := make([]tuple.Value, len(cols)) // this tap's row buffer, refilled per result
		en.exec.Tap(pipe, n-1, func(batch []tuple.Tuple, op stream.Op) {
			for _, t := range batch {
				for j, c := range cols {
					out[j] = t[c]
				}
				for _, sink := range en.resultSinks {
					sink(op == stream.Insert, out)
				}
			}
		})
	}
}

// Reopts returns (selection runs, p-threshold skips).
func (en *Engine) Reopts() (int, int) { return en.reopts, en.skippedReopts }

// attachForced pins the configured caches (Figures 6–8).
func (en *Engine) attachForced() error {
	for _, spec := range en.cfg.ForcedCaches {
		inst := en.instanceFor(spec, 4096)
		if err := en.exec.AttachCache(spec, inst); err != nil {
			return err
		}
		c := &cand{spec: spec, state: Used, inst: inst}
		en.cands[placementKey(spec)] = c
	}
	en.sortCands()
	return nil
}

// buildCandidates enumerates the candidate caches: the prefix-invariant
// candidates plus, when enabled, the Section 6 globally-consistent quota.
// Both are pure functions of (query, ordering), and the ordering is fixed,
// so this runs once.
func (en *Engine) buildCandidates() {
	specs := planner.Candidates(en.q, en.ord)
	if en.cfg.GCQuota > 0 {
		specs = append(specs, planner.GCCandidates(en.q, en.ord, specs, en.cfg.GCQuota)...)
	}
	for _, spec := range specs {
		en.cands[placementKey(spec)] = &cand{spec: spec, state: Unused}
	}
	en.sortCands()
}

// sortCands rebuilds en.sorted from the candidate map.
func (en *Engine) sortCands() {
	en.sorted = en.sorted[:0]
	for _, c := range en.cands {
		en.sorted = append(en.sorted, c)
	}
	slices.SortFunc(en.sorted, func(a, b *cand) int {
		return strings.Compare(placementKey(a.spec), placementKey(b.spec))
	})
}

// instanceFor finds or creates the shared instance for a spec.
func (en *Engine) instanceFor(spec *planner.Spec, buckets int) *join.Instance {
	id := spec.SharingID()
	if inst, ok := en.instances[id]; ok {
		return inst
	}
	inst := join.NewInstance(en.q, spec, buckets, en.mem.Budget(), en.meter)
	en.instances[id] = inst
	return inst
}

// Process runs one update through the engine: profiling decision, join
// computation, adaptivity bookkeeping. It returns the number of join result
// updates emitted.
func (en *Engine) Process(u stream.Update) int {
	en.meter.Charge(cost.WindowMaint)
	return en.processUpdate(u, en.shouldProfile(u.Rel))
}

// shouldProfile draws the profiling decision for the next update to rel. A
// plain MJoin (DisableCaching) never draws, observes or ticks: nothing reads
// the profiler there — no candidates, no re-optimization, no ordering advice
// — and a profiled update without caches charges what a plain one does.
func (en *Engine) shouldProfile(rel int) bool {
	return !en.cfg.DisableCaching && en.pf.ShouldProfile(rel)
}

// processUpdate is the serial per-update path with the window-maintenance
// charge and the profiling draw hoisted to the caller: Process draws inline,
// while the batch driver (ProcessBatch) draws ahead when sizing runs and
// passes the outcome through so the profiler's random sequence is consumed in
// exactly the per-update order.
func (en *Engine) processUpdate(u stream.Update, profiled bool) int {
	var outputs int
	if profiled {
		res, prof := en.exec.ProcessProfiled(u)
		en.pf.Observe(u.Rel, prof)
		outputs = res.Outputs
	} else {
		outputs = en.exec.Process(u).Outputs
	}
	en.afterUpdates(u.Rel, 1, outputs)
	return outputs
}

// afterUpdates is the bookkeeping owed after k processed updates to rel that
// emitted outputs results: one serial update (k = 1) or one batched run
// (ProcessBatch). The profiling arm is reachable only at k = 1: runLimit
// never admits a run while the engine profiles, and nothing a run's
// bookkeeping calls starts a phase before the re-optimization check at its
// end.
func (en *Engine) afterUpdates(rel, k, outputs int) {
	if !en.cfg.DisableCaching {
		en.pf.TickN(rel, k)
	}
	en.updates += k
	en.outputs += uint64(outputs)

	if len(en.cfg.ForcedCaches) > 0 || en.cfg.DisableCaching || en.pausedCaching {
		return
	}

	en.sinceMonitor += k
	if en.sinceMonitor >= en.cfg.MonitorInterval {
		en.sinceMonitor = 0
		tm := time.Now()
		en.monitorUsed()
		en.reoptNanos += time.Since(tm).Nanoseconds()
	}

	if en.profiling {
		en.profilingFor++
		if en.statsReady() || en.profilingFor >= en.cfg.MaxProfilingUpdates {
			tm := time.Now()
			en.finishReopt()
			en.reoptNanos += time.Since(tm).Nanoseconds()
		}
		return
	}
	en.sinceReopt += k
	if en.sinceReopt >= en.cfg.ReoptInterval {
		en.sinceReopt = 0
		tm := time.Now()
		en.startReopt()
		en.reoptNanos += time.Since(tm).Nanoseconds()
	}
}

// Snapshot is an aggregate of the engine's headline counters. Sharded
// execution reads one Snapshot per shard and sums them; the single-engine
// Stats API is a rendering of the same numbers.
type Snapshot struct {
	// Updates is the number of updates processed by this engine.
	Updates int
	// Outputs is the number of join-result updates emitted.
	Outputs uint64
	// Work is the simulated processing work consumed so far.
	Work cost.Units
	// Reopts and SkippedReopts count selection runs and p-threshold skips.
	Reopts, SkippedReopts int
	// CacheMemoryBytes is the bytes held by cache instances.
	CacheMemoryBytes int
	// WindowBytes is the tuple footprint of the relation window stores.
	WindowBytes int
	// SharedStores is the number of relations whose window store is
	// cross-query shared (attached through a hosting server's registry).
	SharedStores int
	// ReoptNanos is cumulative wall-clock time inside the re-optimizer
	// (used-cache monitoring, profiling-phase transitions, selection) —
	// the adaptivity tax off the per-tuple path. Always measured.
	ReoptNanos int64
	// SampledUpdates counts updates that drew a profiling decision.
	SampledUpdates uint64
	// CandidateRescores counts cost-model re-evaluations of candidate
	// caches.
	CandidateRescores uint64
	// The three adaptivity counters are not persisted in checkpoints — a
	// restored engine re-measures them.
}

// Snapshot returns the engine's current counters. The method takes no locks:
// an Engine is single-goroutine, so the only safe cross-goroutine use is by a
// caller that has quiesced whatever goroutine drives this engine. Sharded
// execution does exactly that — ShardedEngine.Stats (and the shard package's
// Group.Snapshot it builds on) flush every mailbox and read the per-shard
// snapshots from the acknowledgement barrier, never concurrently with
// processing. Callers holding a raw *Engine from Shard() must arrange the
// same quiescence themselves.
func (en *Engine) Snapshot() Snapshot {
	s := Snapshot{
		Updates:          en.updates,
		Outputs:          en.outputs,
		Work:             en.meter.Total(),
		Reopts:           en.reopts,
		SkippedReopts:    en.skippedReopts,
		CacheMemoryBytes: en.CacheMemoryBytes(),
		WindowBytes:      en.WindowBytes(),
		SharedStores:     en.exec.SharedStores(),
	}
	s.ReoptNanos = en.reoptNanos
	s.SampledUpdates = en.pf.SampledUpdates()
	s.CandidateRescores = en.candRescores
	return s
}

// Close is a no-op, kept for API stability: an engine holds nothing but
// memory.
func (en *Engine) Close() {}

// SetMemoryBudget changes the cache memory budget at run time (Figure 13)
// and immediately re-divides it among the used caches by priority.
func (en *Engine) SetMemoryBudget(bytes int) {
	en.mem.SetBudget(bytes)
	en.allocateMemory()
}

// UsedCaches returns the specs currently in the Used state, in placement-key
// order.
func (en *Engine) UsedCaches() []*planner.Spec {
	var out []*planner.Spec
	for _, c := range en.sorted {
		if c.state == Used {
			out = append(out, c.spec)
		}
	}
	return out
}

// PlanDescription describes the engine's current physical plan: per
// pipeline, the join order and the caches spliced in.
type PlanDescription struct {
	// Pipelines[i] is relation i's join order.
	Pipelines [][]int
	// Caches describes every used cache placement.
	Caches []CacheDescription
}

// CacheDescription is one cache placement in the current plan.
type CacheDescription struct {
	Spec     *planner.Spec
	State    State
	Entries  int
	Bytes    int
	HitRate  float64
	Shared   bool // instance shared with another placement
	SelfMnt  bool
	Reduced  bool // counted X ⋉ Y cache
	Segments []int
}

// Plan snapshots the current physical plan for introspection.
func (en *Engine) Plan() PlanDescription {
	d := PlanDescription{Pipelines: en.ord.Clone()}
	shareCount := make(map[string]int)
	for _, c := range en.cands {
		if c.state == Used {
			shareCount[c.spec.SharingID()]++
		}
	}
	for _, c := range en.sorted {
		if c.state != Used {
			continue
		}
		d.Caches = append(d.Caches, CacheDescription{
			Spec:     c.spec,
			State:    c.state,
			Entries:  c.inst.Cache().Entries(),
			Bytes:    c.inst.Cache().UsedBytes(),
			HitRate:  c.inst.Cache().HitRate(),
			Shared:   shareCount[c.spec.SharingID()] > 1,
			SelfMnt:  c.spec.SelfMaint,
			Reduced:  c.spec.GC && !c.spec.SelfMaint,
			Segments: c.spec.Segment,
		})
	}
	return d
}

// CandidateInfo is one candidate cache's state and latest cost-model
// evaluation, for the Explain API.
type CandidateInfo struct {
	Spec      *planner.Spec
	State     State
	Benefit   float64
	Cost      float64
	MissProb  float64
	Ready     bool
	Demotions int
}

// Candidates snapshots every known candidate cache with its latest
// estimates, sorted by placement — an EXPLAIN for the adaptive optimizer.
func (en *Engine) Candidates() []CandidateInfo {
	out := make([]CandidateInfo, 0, len(en.sorted))
	for _, c := range en.sorted {
		out = append(out, CandidateInfo{
			Spec:      c.spec,
			State:     c.state,
			Benefit:   c.est.Benefit,
			Cost:      c.est.Cost,
			MissProb:  c.est.MissProb,
			Ready:     c.est.Ready,
			Demotions: c.demotions,
		})
	}
	return out
}

// CacheMemoryBytes returns the total bytes currently held by used cache
// instances (shared instances counted once), including bucket arrays.
func (en *Engine) CacheMemoryBytes() int {
	total := 0
	for _, inst := range en.instances {
		total += inst.Cache().UsedBytes() + inst.Cache().FixedBytes()
	}
	return total
}

// MemoryBudgetBytes returns the engine's current cache-memory budget
// (<0 = unlimited).
func (en *Engine) MemoryBudgetBytes() int { return en.mem.Budget() }

// WindowBytes returns the tuple footprint of the relation window stores
// (shared stores included at full size; a host discounts duplicates through
// its sharing registry).
func (en *Engine) WindowBytes() int {
	n := 0
	for r := 0; r < en.q.N(); r++ {
		n += en.exec.Store(r).MemoryBytes()
	}
	return n
}

// GroupDemand is one used cache sharing group's memory appetite, identified
// by its cross-query canonical identity so a hosting server can pool demand
// across queries: equivalent groups from different engines charge their bytes
// once while every sharer's net benefit keeps flowing into its own request.
type GroupDemand struct {
	// CrossID is the planner.CrossID of the group ("" when the engine was
	// built without Config.RelTokens — such groups are never pooled).
	CrossID string
	// Bytes is the group's memory appetite: max(expected, actual) bytes of
	// the shared instance.
	Bytes int
	// Net is the group's net benefit: the members' benefits minus the
	// maintenance cost charged once per engine-local sharing group.
	Net float64
}

// MemoryDemandDetail reports the engine's appetite for cache memory per
// sharing group — the cross-query generalization of Section 5, by which a
// DSMS hosting many continuous queries divides a global budget by priority —
// for hosts that pool demand across queries. The returned slice is reused
// across calls.
func (en *Engine) MemoryDemandDetail() []GroupDemand {
	if en.demandDetailIdx == nil {
		en.demandDetailIdx = make(map[string]int)
	}
	clear(en.demandDetailIdx)
	en.demandDetail = en.demandDetail[:0]
	for _, c := range en.sorted {
		if c.state != Used {
			continue
		}
		id := c.spec.SharingID()
		gi, ok := en.demandDetailIdx[id]
		if !ok {
			gi = len(en.demandDetail)
			en.demandDetailIdx[id] = gi
			b := int(c.est.ExpectedBytes)
			if actual := c.inst.Cache().UsedBytes(); actual > b {
				b = actual
			}
			en.demandDetail = append(en.demandDetail, GroupDemand{
				CrossID: en.crossIDOf(c.spec),
				Bytes:   b,
				Net:     -c.est.Cost,
			})
		}
		en.demandDetail[gi].Net += c.est.Benefit
	}
	return en.demandDetail
}

// crossIDOf memoizes planner.CrossID per spec (keyed by the engine-local
// sharing id, which determines it given fixed RelTokens).
func (en *Engine) crossIDOf(spec *planner.Spec) string {
	if len(en.cfg.RelTokens) == 0 {
		return ""
	}
	if en.crossIDs == nil {
		en.crossIDs = make(map[string]string)
	}
	id := spec.SharingID()
	if cid, ok := en.crossIDs[id]; ok {
		return cid
	}
	cid := planner.CrossID(en.q, spec, en.cfg.RelTokens)
	en.crossIDs[id] = cid
	return cid
}
