package acache

import (
	"fmt"
	"sort"
	"strings"

	"acache/internal/core"
	"acache/internal/shard"
	"acache/internal/stream"
)

// ShardOptions tune hash-partitioned parallel execution.
type ShardOptions struct {
	// Shards is the number of worker shards P. Values ≤ 1 — and join graphs
	// the partition planner deems degenerate — run a single shard.
	Shards int
	// BatchSize is how many updates the ingress buffers per shard before
	// handing the batch to the shard's mailbox (≤ 0 uses a default sized to
	// amortize channel traffic).
	BatchSize int
	// Resilience tunes overload and fault handling: the degradation ladder,
	// checkpoint/replay panic recovery, and the watchdog. Every shard runs the
	// same recoverable worker; the zero value blocks on full mailboxes,
	// quarantines a panicking shard, and keeps no replay log. Without
	// CheckpointEvery a shard panic makes results silently incomplete: the
	// shard's input is shed from then on, part of the failing batch's results
	// may already have been delivered, and no call returns an error — only
	// Health and Stats().Shedded show it.
	Resilience ResilienceOptions
}

// ShardedEngine executes a built query hash-partitioned across P worker
// shards, each running its own unmodified single-goroutine adaptive engine —
// its own cost meter, profiler, and cache set — on a dedicated goroutine fed
// by a batched mailbox. The partition planner picks the scheme from the join
// graph: a class covering every relation partitions all of them (disjoint
// result slices per shard); otherwise the largest-degree class partitions
// the relations it covers and the rest are broadcast to all shards.
//
// Ingress (Insert, Delete, Append, AppendAt, AdvanceTime, Flush, Close) is
// single-producer: one goroutine feeds the engine, defining the global
// update order, exactly like the serial Engine. Updates are processed
// asynchronously; ingress calls return once the update is routed, so they
// report no per-call result count — use OnResult for deltas and Stats for
// totals. Flush blocks until every routed update is fully processed.
//
// Ordering contract: within a shard, updates are processed in ingress order
// (each shard sees the global order restricted to its slice); cross-shard
// interleaving is unspecified. OnResult callbacks preserve per-shard
// emission order and interleave arbitrarily across shards.
type ShardedEngine struct {
	ingress
	plan shard.Plan
	sh   *shard.Engine
	kept [][]int64 // AppendBatch's rows the rung-2 ladder did not shed, reused per call

	// Resilience layer (resilience.go); only the ingress goroutine touches
	// the ladder and deferred grant.
	ladder        ladderState
	deferredGrant int
	grantDeferred bool
}

// BuildSharded validates the query and constructs a sharded engine. The
// memory budget in opts is the whole engine's budget; each shard receives an
// equal slice.
func (q *Query) BuildSharded(opts Options, sopts ShardOptions) (*ShardedEngine, error) {
	iq, cfg, err := q.compile(opts)
	if err != nil {
		return nil, err
	}
	plan := shard.PlanPartitions(iq, sopts.Shards)
	if cfg.MemoryBudget > 0 && plan.Shards > 1 {
		cfg.MemoryBudget /= plan.Shards
		if cfg.MemoryBudget < 1 {
			cfg.MemoryBudget = 1
		}
	}
	r := sopts.Resilience
	sh, err := shard.New(plan, shard.Options{
		BatchSize:       sopts.BatchSize,
		CheckpointEvery: r.CheckpointEvery,
		MaxRecoveries:   r.MaxRecoveries,
		StallTimeout:    r.StallTimeout,
		Injector:        r.FaultInjector,
	}, func(i int) (*core.Engine, error) {
		c := cfg
		// Decorrelate per-shard sampling and randomized selection; shard 0
		// keeps the caller's seed so P=1 reproduces the serial engine.
		c.Seed = cfg.Seed + int64(i)*1_000_003
		// Scope cross-query cache identities to the shard's slice of the
		// partition plan: shard i of one sharded query pools only with
		// shard i of another partitioned the same way — different slices
		// hold different contents and must never aggregate.
		if len(cfg.RelTokens) > 0 {
			suffix := fmt.Sprintf("#%d/%d:%v", i, plan.Shards, plan.KeyCols)
			toks := make([]string, len(cfg.RelTokens))
			for r, t := range cfg.RelTokens {
				toks[r] = t + suffix
			}
			c.RelTokens = toks
		}
		return core.NewEngine(iq, nil, c)
	})
	if err != nil {
		return nil, err
	}
	return &ShardedEngine{
		ingress: newIngress(q),
		plan:    plan,
		sh:      sh,
		ladder:  newLadder(r, len(q.names), cfg.Seed),
	}, nil
}

// NumShards returns the number of worker shards the planner settled on.
func (e *ShardedEngine) NumShards() int { return e.sh.NumShards() }

// Partitioning describes the partition plan: the chosen scheme and, per
// relation, whether it is hash-partitioned or broadcast.
func (e *ShardedEngine) Partitioning() string {
	if e.plan.Shards <= 1 {
		return "serial (P=1)"
	}
	var parts, bcast []string
	for i, name := range e.q.names {
		if e.plan.Covered(i) {
			col := e.plan.KeyCols[i]
			parts = append(parts, name+"."+e.q.schemas[i].Col(col).Name)
		} else {
			bcast = append(bcast, name)
		}
	}
	s := fmt.Sprintf("P=%d, partitioned on %s", e.plan.Shards, strings.Join(parts, ", "))
	if len(bcast) > 0 {
		s += ", broadcast " + strings.Join(bcast, ", ")
	}
	return s
}

// feed routes an ingress slice to the shard engine update by update,
// blocking while a mailbox is full. Processing is asynchronous, so it
// reports no results.
func (e *ShardedEngine) feed(ups []stream.Update) int {
	for _, u := range ups {
		e.sh.Offer(u)
		if e.server != nil {
			e.server.tick()
		}
		e.tickLadder()
	}
	return 0
}

// Insert routes an insertion into the named relation. Processing is
// asynchronous; use Flush to wait for completion.
func (e *ShardedEngine) Insert(rel string, values ...int64) {
	e.feed(e.update(stream.Insert, e.q.relIndex(rel), values))
}

// Delete routes a deletion from the named relation.
func (e *ShardedEngine) Delete(rel string, values ...int64) {
	e.feed(e.update(stream.Delete, e.q.relIndex(rel), values))
}

// Append pushes one tuple of a count-windowed relation's append-only stream,
// routing the expiry delete (if the window was full) and then the insert.
// The window operators live at the ingress, so window semantics are global —
// identical to the serial engine — regardless of how tuples are partitioned.
func (e *ShardedEngine) Append(rel string, values ...int64) {
	e.feed(e.appendRow(e.q.relIndex(rel), values))
}

// appendRow is the ingress's appendRow behind the degradation ladder: a
// tuple the rung-2 ladder sheds never reaches its window, so no expiry delete
// is ever generated for it.
func (e *ShardedEngine) appendRow(rel int, values []int64) []stream.Update {
	if e.shedIngress(rel, values, false) {
		return nil
	}
	return e.ingress.appendRow(rel, values)
}

// AppendBatch pushes a batch of tuples of a count-windowed relation's
// append-only stream, routing the expiry deletes the batch forces out first
// and then the inserts (the grouped window schedule — see
// stream.SlidingWindow.AppendBatchInto). The long same-operation runs it
// produces are what each shard's vectorized batch path digests fastest.
func (e *ShardedEngine) AppendBatch(rel string, rows [][]int64) {
	idx := e.q.relIndex(rel)
	if e.ladder.level >= 2 {
		kept := e.kept[:0]
		for _, r := range rows {
			if !e.shedIngress(idx, r, false) {
				kept = append(kept, r)
			}
		}
		e.kept, rows = kept, kept
	}
	e.feed(e.appendRows(idx, rows))
}

// AppendAt pushes one tuple of a time-windowed relation's stream at
// application time ts, expiring every time window first (as AdvanceTime).
// Timestamps must be non-decreasing across the engine.
func (e *ShardedEngine) AppendAt(rel string, ts int64, values ...int64) {
	idx := e.q.relIndex(rel)
	if e.shedIngress(idx, values, true) {
		e.AdvanceTime(ts) // time passes for a shed tuple too
		return
	}
	e.feed(e.appendAt(idx, ts, values))
}

// AdvanceTime moves the global clock to ts without inserting anything,
// routing every time window's expiry deletes.
func (e *ShardedEngine) AdvanceTime(ts int64) {
	e.feed(e.advance(ts))
}

// Flush blocks until every routed update has been processed by its shard —
// the quiescent point for Stats, Explain, and DescribePlan.
func (e *ShardedEngine) Flush() { e.sh.Flush() }

// Close flushes, stops the shard goroutines, and releases the engine. The
// engine must not be used afterwards.
func (e *ShardedEngine) Close() { e.sh.Close() }

// OnResult registers a callback receiving every join-result delta as a flat
// row (see Query.ResultColumns for the labels), with insert = true for
// additions and false for retractions. Callbacks are merged across shards
// under a mutex: per-shard emission order is preserved, cross-shard
// interleaving is unspecified. The row is an engine buffer, valid only for
// the duration of the callback: a callback that keeps a row copies it. Must
// be called before the first update; the callback runs on shard goroutines
// and must not call back into the engine.
func (e *ShardedEngine) OnResult(f func(insert bool, row []int64)) {
	e.sh.OnResult(f)
}

// Stats flushes and returns counters aggregated across shards: Updates is
// the ingress count (broadcast updates counted once), Outputs and
// WorkSeconds are summed (WorkSeconds is aggregate work, not wall-clock —
// shards run concurrently), and UsedCaches lists each distinct cache
// placement annotated with how many shards currently use it.
func (e *ShardedEngine) Stats() Stats {
	s := statsFromSnapshot(e.sh.Snapshot()) // flushes
	s.Updates = e.seq
	counts := make(map[string]int)
	for i := 0; i < e.sh.NumShards(); i++ {
		for _, desc := range e.q.usedCaches(e.sh.Shard(i)) {
			counts[desc]++
		}
	}
	for desc, k := range counts {
		if e.sh.NumShards() > 1 {
			desc = fmt.Sprintf("%s [%d/%d shards]", desc, k, e.sh.NumShards())
		}
		s.UsedCaches = append(s.UsedCaches, desc)
	}
	sort.Strings(s.UsedCaches)
	e.fillResilienceStats(&s)
	return s
}

// fillResilienceStats populates the Stats resilience fields from live
// counters. It does not quiesce the shards, so it is safe during overload —
// including from the ingress while a flush would wedge on a stalled shard.
func (e *ShardedEngine) fillResilienceStats(s *Stats) {
	s.CallbackPanics = e.sh.CallbackPanics()
	s.Shedded = e.sh.Shed() + e.ladder.shedTotal
	s.Recoveries = e.sh.Recoveries()
	s.QueueDepth = e.sh.QueueDepth()
	s.AdmissionWaitSeconds = e.sh.AdmissionWait().Seconds()
	s.DegradeLevel = e.ladder.level
	byRel := e.sh.ShedByRelation()
	m := make(map[string]uint64)
	for i, name := range e.q.names {
		n := uint64(0)
		if i < len(byRel) {
			n += byRel[i]
		}
		if e.ladder.shed != nil {
			n += e.ladder.shed[i]
		}
		if n > 0 {
			m[name] = n
		}
	}
	if len(m) > 0 {
		s.SheddedByRelation = m
	}
}

// ShardStats flushes — quiescing the shard goroutines, as the per-shard
// engines' lock-free snapshot contract requires — and returns one Stats per
// shard, in shard order. Updates counts the updates the shard actually
// processed (a broadcast update counts once per shard), and UsedCaches lists
// that shard's own cache placements; the aggregate view is Stats.
func (e *ShardedEngine) ShardStats() []Stats {
	snaps := e.sh.Snapshots() // flushes
	health := e.sh.Health()
	out := make([]Stats, len(snaps))
	for i, snap := range snaps {
		s := statsFromSnapshot(snap)
		s.Shedded = health[i].Shed
		s.QueueDepth = health[i].Pending
		s.UsedCaches = e.q.usedCaches(e.sh.Shard(i))
		out[i] = s
	}
	return out
}

// Explain flushes and renders every shard's adaptive-optimizer view, one
// section per shard.
func (e *ShardedEngine) Explain() string { return e.perShard("", e.q.explain) }

// DescribePlan flushes and renders every shard's physical plan, one section
// per shard, prefixed by the partitioning scheme.
func (e *ShardedEngine) DescribePlan() string {
	return e.perShard(e.Partitioning()+"\n", e.q.describePlan)
}

// perShard flushes and renders header, then each shard's section from the
// serial engine's renderer.
func (e *ShardedEngine) perShard(header string, render func(*core.Engine) string) string {
	e.Flush()
	var b strings.Builder
	b.WriteString(header)
	for i := 0; i < e.sh.NumShards(); i++ {
		fmt.Fprintf(&b, "— shard %d —\n%s", i, render(e.sh.Shard(i)))
	}
	return b.String()
}

// WindowLen flushes and returns the named relation's current tuple count:
// summed across shards for a partitioned relation (shards hold disjoint
// slices), and one shard's count for a broadcast relation (every shard holds
// an identical replica).
func (e *ShardedEngine) WindowLen(rel string) int {
	e.Flush()
	idx := e.q.relIndex(rel)
	if !e.plan.Covered(idx) {
		return e.sh.Shard(0).Exec().Store(idx).Len()
	}
	total := 0
	for i := 0; i < e.sh.NumShards(); i++ {
		total += e.sh.Shard(i).Exec().Store(idx).Len()
	}
	return total
}

// SetMemoryBudget changes the engine-wide cache memory budget at run time;
// each shard receives an equal slice and re-divides it among its caches by
// priority immediately.
func (e *ShardedEngine) SetMemoryBudget(bytes int) {
	if bytes <= 0 {
		bytes = -1
	}
	e.sh.SetMemoryBudget(bytes)
}

func (e *ShardedEngine) shards() int { return e.sh.NumShards() }

func (e *ShardedEngine) health() []ShardHealth { return e.sh.Health() }

func (e *ShardedEngine) release() { e.Close() }

// budgetBytes flushes and sums the shards' cache budgets (−1 if any is
// unlimited).
func (e *ShardedEngine) budgetBytes() int {
	e.Flush()
	total := 0
	for i := 0; i < e.sh.NumShards(); i++ {
		b := e.sh.Shard(i).MemoryBudgetBytes()
		if b < 0 {
			return -1
		}
		total += b
	}
	return total
}

// memoryDemandDetail flushes and concatenates the shards' per-group demand
// detail (group identities are already shard-scoped, see BuildSharded), for
// the hosting server's pooled rebalance.
func (e *ShardedEngine) memoryDemandDetail() []core.GroupDemand {
	return e.sh.MemoryDemandDetail()
}

// applyGrant receives a budget grant from the hosting server. While the
// degradation ladder is engaged the grant is deferred — re-dividing cache
// memory mid-overload would thrash caches the ladder has already paused —
// and applied when the ladder steps back to level 0.
func (e *ShardedEngine) applyGrant(bytes int) {
	if e.ladder.level > 0 {
		e.deferredGrant, e.grantDeferred = bytes, true
		return
	}
	e.sh.SetMemoryBudget(bytes)
}
