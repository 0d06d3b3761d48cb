// Package shard hash-partitions a continuous multiway join across P
// independent worker shards, each running its own unmodified single-goroutine
// core.Engine — its own executor, cost meter, profiler, and cache set — on a
// dedicated goroutine fed by a batched mailbox.
//
// Partitioning multi-way stream joins by join key is the standard scale-out
// move for this plan shape, and it composes cleanly with A-Caching because
// each shard is just a smaller instance of the paper's engine: every
// consistency invariant of Section 3.2 is per-shard state, so no cross-shard
// coordination is ever needed.
//
// The partitioning scheme is chosen from the join graph's attribute
// equivalence classes:
//
//   - When one class has an attribute in every relation (the n-way join on a
//     common attribute), every relation is partitioned by that class's value
//     and each shard computes a disjoint slice of the result.
//   - Otherwise the largest-degree class partitions the relations it covers,
//     and updates of non-covered relations are broadcast to all shards. A
//     result tuple's covered constituents all carry the same class value (the
//     class is an equivalence class), so they live in exactly one shard and
//     the result is still produced exactly once.
//   - Degenerate graphs (no class spanning two relations) fall back to P=1.
//
// Ordering contract: updates offered by the single ingress goroutine are
// processed in offer order within each shard (a shard's input is the offer
// order restricted to that shard); cross-shard interleaving is unspecified.
// Result callbacks preserve per-shard emission order; emissions from
// different shards interleave arbitrarily.
//
// Resilience: every shard runs the same recoverable worker (resilience.go):
// bounded admission with shed accounting, panic-isolated processing that
// rebuilds a shard's engine from a windows checkpoint plus a replay log,
// quarantine when recovery is exhausted, and a per-shard Health report. Each
// feature costs nothing until its option is set: the replay log and the
// result stage exist only with CheckpointEvery > 0, the delete guard only on
// a route whose shed inserts still await their expiry deletes.
package shard

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"acache/internal/core"
	"acache/internal/fault"
	"acache/internal/query"
	"acache/internal/stream"
	"acache/internal/tuple"
)

// Plan describes how a query's update streams are hash-partitioned across
// shards.
type Plan struct {
	// Shards is the number of worker shards P (1 = serial fallback).
	Shards int
	// Class is the partitioning attribute equivalence class, or −1 when the
	// plan fell back to P=1.
	Class int
	// KeyCols[rel] is the tuple column of relation rel carrying the
	// partitioning class's value, or −1 when the relation is not covered by
	// the class and its updates are broadcast to every shard.
	KeyCols []int
}

// Covered reports whether relation rel is hash-partitioned (as opposed to
// broadcast).
func (p Plan) Covered(rel int) bool { return p.Shards > 1 && p.KeyCols[rel] >= 0 }

// NumBroadcast returns the number of relations whose updates are broadcast.
func (p Plan) NumBroadcast() int {
	if p.Shards <= 1 {
		return 0
	}
	n := 0
	for _, c := range p.KeyCols {
		if c < 0 {
			n++
		}
	}
	return n
}

func (p Plan) String() string {
	if p.Shards <= 1 {
		return "serial (P=1)"
	}
	return fmt.Sprintf("P=%d on class %d (%d broadcast)", p.Shards, p.Class, p.NumBroadcast())
}

// PlanPartitions picks the partitioning scheme for q from its join graph:
// the attribute equivalence class covering the most relations wins (ties to
// the lowest class id, so plans are deterministic); relations it does not
// cover are broadcast. When no class spans at least two relations — a
// degenerate graph — or shards ≤ 1, the plan falls back to P=1.
func PlanPartitions(q *query.Query, shards int) Plan {
	n := q.N()
	plan := Plan{Shards: 1, Class: -1, KeyCols: make([]int, n)}
	for i := range plan.KeyCols {
		plan.KeyCols[i] = -1
	}
	if shards <= 1 {
		return plan
	}
	best, bestDeg := -1, 1
	for c := 0; c < q.NumClasses(); c++ {
		deg := 0
		for rel := 0; rel < n; rel++ {
			if len(q.ClassAttrsOf(rel, c)) > 0 {
				deg++
			}
		}
		if deg > bestDeg {
			best, bestDeg = c, deg
		}
	}
	if best < 0 {
		return plan
	}
	plan.Shards = shards
	plan.Class = best
	for rel := 0; rel < n; rel++ {
		names := q.ClassAttrsOf(rel, best)
		if len(names) == 0 {
			continue
		}
		// Any member attribute works: inside a valid composite tuple all
		// attributes of one class carry equal values. Use the first in the
		// canonical (sorted) order.
		plan.KeyCols[rel] = q.Schema(rel).MustColOf(tuple.Attr{Rel: rel, Name: names[0]})
	}
	return plan
}

// mix is the splitmix64 finalizer: raw join-attribute values are often dense
// small integers, which would otherwise land consecutive values on
// consecutive shards and turn range-skewed streams into shard skew.
func mix(v int64) uint64 {
	x := uint64(v) + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ShardOf returns the shard an update routes to, or −1 when the update's
// relation is broadcast to every shard. Routing is a pure function of the
// partitioning value, so a tuple's delete always follows its insert to the
// same shard.
func (p Plan) ShardOf(u stream.Update) int {
	if p.Shards <= 1 {
		return 0
	}
	col := p.KeyCols[u.Rel]
	if col < 0 {
		return -1
	}
	return int(mix(u.Tuple[col]) % uint64(p.Shards))
}

// mailboxDepth is the per-shard channel buffer in batches; it decouples the
// ingress from transient per-shard slowdowns (a shard mid-re-optimization)
// while still applying backpressure when a shard falls persistently behind.
const mailboxDepth = 8

// DefaultBatchSize is the ingress batch size when the caller passes ≤ 0:
// large enough to amortize a channel hand-off over many updates, small
// enough to keep shard latency and ingress buffering negligible.
const DefaultBatchSize = 128

// Options tune the mailbox machinery between the ingress and the shards. The
// zero value (plus BatchSize) blocks the ingress on a full mailbox,
// quarantines a panicking shard, and runs no watchdog.
type Options struct {
	// BatchSize is how many updates the ingress buffers per shard before
	// handing the batch to the shard's mailbox (≤ 0 uses DefaultBatchSize).
	BatchSize int

	// Admission selects the policy applied when a shard's mailbox is full
	// (default AdmitBlock: block the ingress — classic backpressure).
	Admission AdmissionPolicy
	// OfferTimeout bounds how long AdmitBlock may block the ingress before
	// the batch is shed instead (0 = block indefinitely).
	OfferTimeout time.Duration
	// CheckpointEvery enables panic recovery: each shard checkpoints its
	// window contents every CheckpointEvery committed updates, keeps a
	// replay log of updates since, and after a worker panic rebuilds its
	// engine from checkpoint + replay. ≤ 0 disables recovery (and the replay
	// log): a panicking shard is quarantined immediately.
	CheckpointEvery int
	// MaxRecoveries caps successful recoveries per shard before it is
	// quarantined (0 with CheckpointEvery > 0 defaults to 3; < 0 disables
	// recovery).
	MaxRecoveries int
	// StallTimeout enables a watchdog that marks a shard Degraded when its
	// mailbox is non-empty but its worker makes no progress for this long.
	StallTimeout time.Duration
	// Injector arms deterministic faults for chaos tests and overload
	// benchmarks. Nil in production; a nil injector is one nil check per
	// mailbox batch.
	Injector *fault.Injector
}

// batchMsg is one mailbox message: a batch of updates, a flush ack request,
// or both. guard marks a batch sent while some of its route's shed inserts
// still await their expiry deletes: the worker drops its deletes of tuples
// the shard does not hold (guardDeletes).
type batchMsg struct {
	ups   []stream.Update
	ack   chan<- struct{}
	guard bool
}

// Engine fans updates out to per-shard core engines. One ingress goroutine
// calls Offer/Flush/Close; each shard runs on its own goroutine. All
// inspection (Snapshot, Shard, per-shard state) must happen with the shards
// quiesced: after a Flush and before the next Offer. Close is idempotent and
// safe to call from multiple goroutines; Health may be read at any time.
type Engine struct {
	plan      Plan
	shards    []*core.Engine
	mail      []chan batchMsg
	ing       *stream.Batcher
	batchSize int
	wg        sync.WaitGroup
	resMu     sync.Mutex // serializes merged result callbacks
	userCB    func(insert bool, result []tuple.Value)
	closeOnce sync.Once
	// MemoryDemandDetail's concatenation buffer, reused per call.
	demandDetail []core.GroupDemand

	// Resilience state (resilience.go).
	admission     AdmissionPolicy
	offerTimeout  time.Duration
	ckptEvery     int
	maxRecoveries int
	inj           *fault.Injector
	mk            func(shard int) (*core.Engine, error)
	states        []*shardState
	// pauseWant is the degradation ladder's desired cache-pause state; each
	// worker applies it before its next sub-batch.
	pauseWant atomic.Bool
	// pending holds per-route deletes deferred by a shed batch; they are
	// disposed ahead of the route's next submission. Ingress-owned.
	pending [][]stream.Update
	// shedIns counts, per route, the inserts shed by admission; while it
	// exceeds the worker's shardState.filtered the route's batches carry
	// batchMsg.guard. Ingress-owned.
	shedIns []int64
	// deque buffers per-route undisposed batches under shed-oldest admission
	// so evictions always precede later dispositions in stream order.
	// Ingress-owned.
	deque           [][][]stream.Update
	shedByRel       []atomic.Uint64
	filteredDeletes atomic.Uint64
	cbPanics        atomic.Uint64
	// subCtx bounds blocking mailbox sends during OfferContext/FlushContext;
	// subErr carries the abort out of the Batcher emit callback.
	subCtx    context.Context
	subErr    error
	stopWatch chan struct{}
}

// New builds a sharded engine over plan.Shards core engines constructed by
// mk (one call per shard, so each shard gets its own meter, profiler, cache
// set, and seed) and starts the worker goroutines. mk is retained: a
// recovering shard rebuilds its engine with mk(i).
func New(plan Plan, opts Options, mk func(shard int) (*core.Engine, error)) (*Engine, error) {
	if plan.Shards < 1 {
		return nil, fmt.Errorf("shard: plan has %d shards", plan.Shards)
	}
	batchSize := opts.BatchSize
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	e := &Engine{
		plan:          plan,
		batchSize:     batchSize,
		admission:     opts.Admission,
		offerTimeout:  opts.OfferTimeout,
		ckptEvery:     opts.CheckpointEvery,
		maxRecoveries: opts.MaxRecoveries,
		inj:           opts.Injector,
		mk:            mk,
	}
	if e.maxRecoveries == 0 && e.ckptEvery > 0 {
		e.maxRecoveries = 3
	}
	if e.maxRecoveries < 0 {
		e.maxRecoveries = 0
	}
	for i := 0; i < plan.Shards; i++ {
		en, err := mk(i)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		e.shards = append(e.shards, en)
		e.mail = append(e.mail, make(chan batchMsg, mailboxDepth))
		e.states = append(e.states, &shardState{})
	}
	e.shedByRel = make([]atomic.Uint64, len(plan.KeyCols))
	e.pending = make([][]stream.Update, plan.Shards)
	e.shedIns = make([]int64, plan.Shards)
	if opts.Admission == AdmitShedOldest {
		e.deque = make([][][]stream.Update, plan.Shards)
	}
	e.ing = stream.NewBatcher(plan.Shards, batchSize, e.submit)
	for i := range e.shards {
		e.wg.Add(1)
		go e.worker(i)
	}
	if opts.StallTimeout > 0 {
		e.stopWatch = make(chan struct{})
		e.wg.Add(1)
		go e.watchdog(opts.StallTimeout)
	}
	return e, nil
}

// NumShards returns P.
func (e *Engine) NumShards() int { return len(e.shards) }

// Offer routes one update to its shard's pending batch (or to every shard's,
// for a broadcast relation). The update's tuple must not be mutated
// afterwards: broadcast shards share it, and shards retain tuples in their
// windows.
func (e *Engine) Offer(u stream.Update) {
	s := e.plan.ShardOf(u)
	if s >= 0 {
		e.ing.Add(s, u)
		return
	}
	for i := range e.mail {
		e.ing.Add(i, u)
	}
}

// Flush submits every pending batch and returns only after every shard has
// processed everything offered so far — the quiescent point at which
// per-shard state may be inspected from the ingress goroutine.
func (e *Engine) Flush() {
	// Background context: cannot expire, so the error is always nil.
	_ = e.FlushContext(context.Background())
}

// FlushContext is Flush bounded by ctx: submit buffered batches (admission
// policy applies), drain deferred work, then run the ack barrier — every
// step bounded by ctx. It aborts (returning the context's error) if a shard
// cannot drain in time — a stalled worker no longer wedges the ingress
// forever. On abort the engine stays usable: unsubmitted batches are retried
// by the next Offer/Flush, and stray flush acks are ignored.
func (e *Engine) FlushContext(ctx context.Context) error {
	e.subCtx, e.subErr = ctx, nil
	e.ing.Flush()
	err := e.subErr
	e.subCtx, e.subErr = nil, nil
	if err != nil {
		return err
	}
	if err := e.drainDeferred(ctx); err != nil {
		return err
	}
	done := ctx.Done()
	ack := make(chan struct{}, len(e.mail))
	if done == nil {
		// A context that cannot expire (Flush's) takes plain channel
		// operations: on shard2_batch the two-case select costs 8% of the
		// Append+Flush round trip (DESIGN.md §9).
		for _, m := range e.mail {
			m <- batchMsg{ack: ack}
		}
		for range e.mail {
			<-ack
		}
		return nil
	}
	for _, m := range e.mail {
		select {
		case m <- batchMsg{ack: ack}:
		case <-done:
			return ctx.Err()
		}
	}
	for range e.mail {
		select {
		case <-ack:
		case <-done:
			return ctx.Err()
		}
	}
	return nil
}

// Close flushes, stops the worker goroutines, and waits for them to exit.
// Idempotent and safe to call from multiple goroutines (every caller returns
// only after shutdown completes); the engine must not be offered to
// afterwards.
func (e *Engine) Close() {
	e.closeOnce.Do(func() {
		e.Flush()
		if e.stopWatch != nil {
			close(e.stopWatch)
		}
		for _, m := range e.mail {
			close(m)
		}
		e.wg.Wait()
	})
}

// Shard exposes shard i's core engine for inspection. A core.Engine takes no
// locks anywhere — including core.Engine.Snapshot — so every read through
// this handle is only valid while the shard goroutines are quiesced: after a
// Flush and before the next Offer. Snapshot and Snapshots bundle the flush
// and are the safe way to read counters.
func (e *Engine) Shard(i int) *core.Engine { return e.shards[i] }

// Snapshots flushes — quiescing every shard goroutine, which
// core.Engine.Snapshot's no-locks contract requires — and then reads one
// snapshot per shard, in shard order. Counters carried over from engines
// replaced during recovery are folded in, so totals span rebuilds.
func (e *Engine) Snapshots() []core.Snapshot {
	e.Flush()
	out := make([]core.Snapshot, len(e.shards))
	for i, en := range e.shards {
		out[i] = en.Snapshot()
		out[i].AddSnapshot(e.states[i].snapBase)
	}
	return out
}

// Snapshot flushes and returns the sum of all shards' counters.
func (e *Engine) Snapshot() core.Snapshot { return sumSnapshots(e.Snapshots()) }

// sumSnapshots folds per-shard snapshots into the engine total: cumulative
// counters through core.Snapshot.AddSnapshot, plus the point-in-time gauges
// AddSnapshot leaves alone — each shard holds its own stores and caches, so
// the engine's footprint is the sum.
func sumSnapshots(snaps []core.Snapshot) core.Snapshot {
	var total core.Snapshot
	for _, s := range snaps {
		total.AddSnapshot(s)
		total.CacheMemoryBytes += s.CacheMemoryBytes
		total.WindowBytes += s.WindowBytes
		total.SharedStores += s.SharedStores
	}
	return total
}

// OnResult registers a merged result callback: every shard's join-result
// deltas are funneled through one mutex into f. Per-shard emission order is
// preserved; cross-shard interleaving is unspecified. Must be called before
// the first Offer. The result slice is an engine buffer, valid only for the
// duration of the call: f copies what it keeps. f runs on shard goroutines
// and must not call back into the engine. A panic in f is contained: it is swallowed, counted (see
// CallbackPanics), and processing continues.
//
// With recovery enabled (CheckpointEvery > 0) delivery is transactional:
// results are staged and handed to f only after their sub-batch commits, so a
// recovered shard's replay never delivers a result twice and a discarded
// attempt delivers nothing. Without recovery nothing is retried and results
// reach f as they are produced; a sub-batch that panics may have delivered
// part of its results before its shard is quarantined.
func (e *Engine) OnResult(f func(insert bool, result []tuple.Value)) {
	e.userCB = f
	for i, en := range e.shards {
		e.attachSink(i, en)
	}
}

// safeCall invokes the user callback with panic containment. Caller holds
// resMu.
func (e *Engine) safeCall(ins bool, vals []tuple.Value) {
	defer func() {
		if r := recover(); r != nil {
			e.cbPanics.Add(1)
		}
	}()
	e.userCB(ins, vals)
}

// MemoryDemandDetail flushes and concatenates the shards' per-group demand
// detail — shard-scoped group identities never collide across shards, so the
// concatenation is itself a valid detail. The returned slice is reused
// across calls. Quarantined shards are skipped.
func (e *Engine) MemoryDemandDetail() []core.GroupDemand {
	e.Flush()
	e.demandDetail = e.demandDetail[:0]
	for i, en := range e.shards {
		if e.states[i].getHealth() == Quarantined {
			continue
		}
		e.demandDetail = append(e.demandDetail, en.MemoryDemandDetail()...)
	}
	return e.demandDetail
}

// SetMemoryBudget flushes and divides a cache-memory budget evenly across
// the shards (each shard runs its own Section 5 allocation below its slice);
// bytes < 0 grants every shard unlimited memory. Quarantined shards are
// skipped.
func (e *Engine) SetMemoryBudget(bytes int) {
	e.Flush()
	per := bytes
	if bytes >= 0 {
		per = bytes / len(e.shards)
	}
	for i, en := range e.shards {
		if e.states[i].getHealth() == Quarantined {
			continue
		}
		en.SetMemoryBudget(per)
	}
}
