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
	"slices"
	"strings"

	"acache/internal/cost"
	"acache/internal/join"
	"acache/internal/memory"
	"acache/internal/ordering"
	"acache/internal/planner"
	"acache/internal/profiler"
	"acache/internal/query"
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
	// GCQuota is m: the maximum number of candidate caches considered when
	// globally-consistent caches are enabled (Section 6). 0 disables GC
	// candidates.
	GCQuota int
	// MemoryBudget is the bytes available for caches; ≤ 0 is unlimited
	// (Section 5, Figure 13) — withDefaults maps 0 to −1.
	MemoryBudget int
	// DisableCaching runs a plain MJoin (the baseline M of Section 7.3): no
	// candidates, no profiler, no sampling.
	DisableCaching bool
	// ForcedCaches, when non-empty, pins exactly these caches in place for
	// the engine's life — Figures 6–8 force the single candidate cache to be
	// used. A pinned plan is static: it builds no profiler and samples no
	// update. It takes precedence over DisableCaching.
	ForcedCaches []*planner.Spec
	// Selection picks the offline algorithm.
	Selection SelectionMode
	// BudgetAware integrates the memory budget into selection itself
	// (choose the best cache set that fits) instead of the paper's modular
	// select-then-allocate pipeline — the integrated problem the paper
	// defers to future work. Only meaningful with a finite MemoryBudget.
	BudgetAware bool
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
	if c.MemoryBudget == 0 {
		c.MemoryBudget = -1
	}
	return c
}

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
	// group indexes the candidate's sharing group in Engine.groups, and slot
	// its probe stream in the profiler; both are fixed at build time.
	group, slot int
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
	// judged marks a used cache the current monitor pass re-estimated.
	judged bool
}

type monitorSnapshot struct {
	probes, hits int64
}

// group is one sharing group: the candidate placements whose caches share
// one instance (equal Spec.SharingID), the unit of selection's group costs
// (Section 4.4), the monitor's immediate drop (Section 4.5(a)) and memory
// allocation (Section 5). The table is fixed at build time.
type group struct {
	id      string  // Spec.SharingID: the memory manager's request ID
	crossID string  // planner.CrossID ("" without Config.RelTokens)
	members []*cand // in placement order
	// inst is the shared instance, non-nil while a member is used or
	// suspended.
	inst *join.Instance
}

// net sums the members that satisfy in: their benefits minus the
// maintenance cost, paid once and read from the first of them, lead (nil
// when none does).
func (g *group) net(in func(*cand) bool) (net float64, lead *cand) {
	for _, c := range g.members {
		if !in(c) {
			continue
		}
		if lead == nil {
			lead, net = c, -c.est.Cost
		}
		net += c.est.Benefit
	}
	return net, lead
}

// bytes is the group's memory appetite: the largest of every used member's
// expected bytes and the instance's actual bytes.
func (g *group) bytes() float64 {
	var bytes float64
	for _, c := range g.members {
		if c.state != Used {
			continue
		}
		b := c.est.ExpectedBytes
		if actual := float64(g.inst.Cache().UsedBytes()); actual > b {
			b = actual
		}
		if b > bytes {
			bytes = b
		}
	}
	return bytes
}

func used(c *cand) bool { return c.state == Used }

// Engine is the stream-join engine: the Executor of Figure 4 with its
// candidate caches, plus — for an adaptive engine — the Profiler and
// Re-optimizer in one adaptive controller.
type Engine struct {
	q     *query.Query
	cfg   Config
	meter *cost.Meter
	exec  *join.Exec
	ord   planner.Ordering // fixed at build time; never reordered
	mem   *memory.Manager

	// cands holds the candidate placements in placement-key order, so every
	// walk — selection ties, group benefit sums, pooled demand, the order
	// caches are suspended or detached in — is reproducible across runs.
	// groups holds their sharing groups, numbered in order of first member.
	// Both are fixed at build time, by buildCandidates or attachForced; keys
	// are distinct by construction.
	cands  []*cand
	groups []group

	// ctl is the adaptive controller, chosen once in NewEngine: nil for a
	// plain MJoin (DisableCaching) and for a pinned plan (ForcedCaches). ad
	// is the per-update hook: ctl while it runs, nil while caching is paused
	// (SetCachingPaused), so a paused engine does per update exactly what an
	// MJoin does.
	ctl, ad *adaptive

	updates int
	outputs uint64
	// allocateMemory's and MemoryDemandDetail's scratch, reused so a host
	// server's periodic rebalance allocates nothing at steady state.
	allocReqs    []memory.Request
	allocGrants  map[string]int
	demandDetail []GroupDemand

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
	en := &Engine{
		q:           q,
		cfg:         cfg,
		meter:       meter,
		exec:        exec,
		ord:         exec.Ordering(),
		mem:         memory.NewManager(cfg.MemoryBudget),
		allocGrants: make(map[string]int),
	}
	if len(cfg.ForcedCaches) > 0 {
		if err := en.attachForced(cfg.ForcedCaches); err != nil {
			return nil, err
		}
	} else if !cfg.DisableCaching {
		en.buildCandidates()
		en.ctl = newAdaptive(en)
		en.ad = en.ctl
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

// Reopts returns (selection runs, p-threshold skips); both stay zero without
// an adaptive controller.
func (en *Engine) Reopts() (int, int) {
	if a := en.ctl; a != nil {
		return a.reopts, a.skippedReopts
	}
	return 0, 0
}

// attachForced pins the given caches (Figures 6–8), attaching them in the
// order given.
func (en *Engine) attachForced(specs []*planner.Spec) error {
	for _, spec := range specs {
		en.cands = append(en.cands, &cand{spec: spec, state: Used})
	}
	given := slices.Clone(en.cands)
	en.buildTable()
	for _, c := range given {
		if err := en.exec.AttachCache(c.spec, en.instanceFor(c, 4096)); err != nil {
			return err
		}
	}
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
		en.cands = append(en.cands, &cand{spec: spec, state: Unused})
	}
	en.buildTable()
}

// buildTable puts the candidates in placement-key order and groups them by
// sharing identity.
func (en *Engine) buildTable() {
	slices.SortFunc(en.cands, func(a, b *cand) int {
		return strings.Compare(a.spec.Key(), b.spec.Key())
	})
	for _, c := range en.cands {
		id := c.spec.SharingID()
		gi := slices.IndexFunc(en.groups, func(g group) bool { return g.id == id })
		if gi < 0 {
			gi = len(en.groups)
			g := group{id: id}
			if len(en.cfg.RelTokens) > 0 {
				g.crossID = planner.CrossID(en.q, c.spec, en.cfg.RelTokens)
			}
			en.groups = append(en.groups, g)
		}
		c.group = gi
		en.groups[gi].members = append(en.groups[gi].members, c)
	}
}

// instanceFor finds or creates c's shared instance.
func (en *Engine) instanceFor(c *cand, buckets int) *join.Instance {
	g := &en.groups[c.group]
	if g.inst == nil {
		g.inst = join.NewInstance(en.q, c.spec, buckets, en.mem.Budget(), en.meter)
	}
	return g.inst
}

// instOf returns c's shared instance: non-nil while c is used or suspended.
func (en *Engine) instOf(c *cand) *join.Instance { return en.groups[c.group].inst }

// detach removes a used or suspended placement; when its instance's last
// placement goes away the instance is released. A suspended placement's
// shadow is the controller's to stop.
func (en *Engine) detach(c *cand) {
	if c.state != Used && !c.suspended {
		return
	}
	en.exec.DetachCache(c.spec)
	en.release(c)
	c.suspended = false
	c.state = Unused
}

// release drops c's cache instance unless another used or suspended
// placement shares it.
func (en *Engine) release(c *cand) {
	g := &en.groups[c.group]
	for _, d := range g.members {
		if d != c && (d.state == Used || d.suspended) {
			return
		}
	}
	g.inst = nil
}

// allocateMemory divides the budget among used caches by priority
// (Section 5) and applies the grants as per-instance byte budgets. Its
// request slice and grant map live on the engine and are reused, so the
// periodic rebalance path allocates nothing at steady state.
func (en *Engine) allocateMemory() {
	en.allocReqs = en.allocReqs[:0]
	for i := range en.groups {
		g := &en.groups[i]
		net, lead := g.net(used)
		if lead == nil {
			continue
		}
		bytes := max(int(g.bytes()), memory.PageBytes)
		en.allocReqs = append(en.allocReqs, memory.Request{
			ID:       g.id,
			Priority: net / float64(bytes),
			Bytes:    bytes,
		})
	}
	en.mem.AllocateInto(en.allocGrants, en.allocReqs)
	for i := range en.groups {
		if grant, ok := en.allocGrants[en.groups[i].id]; ok {
			en.groups[i].inst.Cache().SetBudget(grant)
		}
	}
}

// Process runs one update through the engine: profiling decision, join
// computation, adaptivity bookkeeping. It returns the number of join result
// updates emitted.
func (en *Engine) Process(u stream.Update) int {
	en.meter.Charge(cost.WindowMaint)
	a := en.ad
	return en.processUpdate(u, a != nil && a.pf.ShouldProfile(u.Rel))
}

// processUpdate is the serial per-update path with the window-maintenance
// charge and the profiling draw hoisted to the caller: Process draws inline,
// while the batch driver (ProcessBatch) draws ahead when sizing runs and
// passes the outcome through so the profiler's random sequence is consumed in
// exactly the per-update order. Only the adaptive controller draws, so a
// profiled update implies en.ad is set.
func (en *Engine) processUpdate(u stream.Update, profiled bool) int {
	var outputs int
	if profiled {
		res, prof := en.exec.ProcessProfiled(u)
		en.ad.pf.Observe(u.Rel, prof)
		outputs = res.Outputs
	} else {
		outputs = en.exec.Process(u).Outputs
	}
	en.afterUpdates(u.Rel, 1, outputs)
	return outputs
}

// afterUpdates is the bookkeeping owed after k processed updates to rel that
// emitted outputs results: one serial update (k = 1) or one batched run
// (ProcessBatch).
func (en *Engine) afterUpdates(rel, k, outputs int) {
	en.updates += k
	en.outputs += uint64(outputs)
	if a := en.ad; a != nil {
		a.afterUpdates(rel, k)
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
	// WindowBytes is the tuple footprint of the relation window stores
	// (shared stores at full size; a host discounts duplicates through its
	// sharing registry).
	WindowBytes int
	// SharedStores is the number of relations whose window store is
	// cross-query shared (attached through a hosting server's registry).
	SharedStores int
	// ReoptNanos is cumulative wall-clock time inside the re-optimizer
	// (used-cache monitoring, profiling-phase transitions, selection) —
	// the adaptivity tax off the per-tuple path. Always measured.
	ReoptNanos int64
	// SampledUpdates counts updates that drew a profiling decision. Only an
	// adaptive engine samples, and not while caching is paused: an MJoin
	// or a pinned plan reports zero (DESIGN.md §23).
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
		CacheMemoryBytes: en.CacheMemoryBytes(),
		SharedStores:     en.exec.SharedStores(),
	}
	for r := 0; r < en.q.N(); r++ {
		s.WindowBytes += en.exec.Store(r).MemoryBytes()
	}
	if a := en.ctl; a != nil {
		s.Reopts, s.SkippedReopts = a.reopts, a.skippedReopts
		s.ReoptNanos = a.reoptNanos
		s.SampledUpdates = a.pf.SampledUpdates()
		s.CandidateRescores = a.candRescores
	}
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
	for _, c := range en.cands {
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
	for _, c := range en.cands {
		if c.state != Used {
			continue
		}
		g := &en.groups[c.group]
		d.Caches = append(d.Caches, CacheDescription{
			Spec:     c.spec,
			State:    c.state,
			Entries:  g.inst.Cache().Entries(),
			Bytes:    g.inst.Cache().UsedBytes(),
			HitRate:  g.inst.Cache().HitRate(),
			Shared:   slices.ContainsFunc(g.members, func(d *cand) bool { return d != c && used(d) }),
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
	out := make([]CandidateInfo, 0, len(en.cands))
	for _, c := range en.cands {
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
	for i := range en.groups {
		if inst := en.groups[i].inst; inst != nil {
			total += inst.Cache().UsedBytes() + inst.Cache().FixedBytes()
		}
	}
	return total
}

// MemoryBudgetBytes returns the engine's current cache-memory budget
// (<0 = unlimited).
func (en *Engine) MemoryBudgetBytes() int { return en.mem.Budget() }

// GroupDemand is one used cache sharing group's memory appetite, identified
// by its cross-query canonical identity so a hosting server can pool demand
// across queries: equivalent groups from different engines charge their bytes
// once while every sharer's net benefit keeps flowing into its own request.
type GroupDemand struct {
	// CrossID is the planner.CrossID of the group ("" when the engine was
	// built without Config.RelTokens — such groups are never pooled).
	CrossID string
	// Bytes is the group's memory appetite: the largest of every used
	// member's expected bytes and the shared instance's actual bytes, the
	// size allocateMemory asks for.
	Bytes int
	// Net is the group's net benefit: the members' benefits minus the
	// maintenance cost charged once per engine-local sharing group.
	Net float64
}

// MemoryDemandDetail reports the engine's appetite for cache memory per
// sharing group — the cross-query generalization of Section 5, by which a
// DSMS hosting many continuous queries divides a global budget by priority —
// for hosts that pool demand across queries, in order of each group's first
// used placement. The returned slice is reused across calls.
func (en *Engine) MemoryDemandDetail() []GroupDemand {
	en.demandDetail = en.demandDetail[:0]
	for _, c := range en.cands {
		if c.state != Used {
			continue
		}
		g := &en.groups[c.group]
		if net, lead := g.net(used); lead == c {
			en.demandDetail = append(en.demandDetail, GroupDemand{CrossID: g.crossID, Bytes: int(g.bytes()), Net: net})
		}
	}
	return en.demandDetail
}
