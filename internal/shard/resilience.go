package shard

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"acache/internal/core"
	"acache/internal/stream"
	"acache/internal/tuple"
)

// AdmissionPolicy decides what happens when a shard's mailbox is full.
type AdmissionPolicy int

const (
	// AdmitBlock blocks the ingress until the mailbox drains (optionally
	// bounded by Options.OfferTimeout, after which the batch is shed) —
	// classic backpressure when no timeout is set.
	AdmitBlock AdmissionPolicy = iota
	// AdmitReject sheds the new batch instead of blocking.
	AdmitReject
	// AdmitShedOldest evicts the oldest queued batch to make room for the
	// new one: fresher data wins under overload. Expiry deletes of evicted
	// batches are retained (windows must still shrink), so a shard's window
	// may transiently exceed its nominal size until the re-queued deletes
	// are processed.
	AdmitShedOldest
)

func (p AdmissionPolicy) String() string {
	switch p {
	case AdmitReject:
		return "reject"
	case AdmitShedOldest:
		return "shed-oldest"
	default:
		return "block"
	}
}

// HealthState is a shard's liveness classification.
type HealthState int32

const (
	// Healthy: processing normally.
	Healthy HealthState = iota
	// Degraded: serving, but recently recovered from a panic (until its next
	// clean checkpoint) or flagged stalled by the watchdog.
	Degraded
	// Recovering: a rebuild + replay is in progress right now.
	Recovering
	// Quarantined: recovery was exhausted; the shard sheds its input and the
	// engine serves the remaining shards.
	Quarantined
)

func (h HealthState) String() string {
	switch h {
	case Degraded:
		return "degraded"
	case Recovering:
		return "recovering"
	case Quarantined:
		return "quarantined"
	default:
		return "healthy"
	}
}

// ShardHealth is one shard's health report. Safe to request from any
// goroutine at any time (unlike Snapshot, it reads only atomics).
type ShardHealth struct {
	Shard      int
	State      HealthState
	Recoveries int
	// Pending is the shard's current mailbox backlog in updates.
	Pending int
	// Shed counts updates dropped for this shard (admission + quarantine).
	Shed uint64
	// LastError is the most recent recovered panic message, if any.
	LastError string
}

// staged is one join-result delta held back until its sub-batch commits.
type staged struct {
	insert bool
	vals   []tuple.Value
}

// shardState is the per-shard resilience state. The atomics form the
// cross-goroutine surface (ingress admission, watchdog, Health); the rest is
// owned by the shard's worker goroutine (or by the ingress between a Flush
// and the next Offer).
type shardState struct {
	// enq / done count updates handed to / retired by the worker (processed
	// or shed); their difference is the mailbox backlog. waitNs accumulates
	// ingress time spent blocked on this mailbox. The ingress writes enq per
	// batch and the worker writes done and beat per batch: the pad keeps the
	// two sides off one cache line, which would otherwise cross between cores
	// twice per Append+Flush round trip.
	enq    atomic.Int64
	waitNs atomic.Int64
	_      [64]byte
	done   atomic.Int64
	// filtered counts the deletes guardDeletes dropped on this route; the
	// ingress reads it only once the route has shed an insert.
	filtered atomic.Int64

	health     atomic.Int32
	recoveries atomic.Int64
	lastErr    atomic.Value // string
	// beat increments on every worker progress step — the watchdog's
	// heartbeat.
	beat atomic.Uint64
	// shed counts updates dropped for this shard.
	shed atomic.Uint64

	// Worker-owned recovery state.
	ckpt      *core.Checkpoint
	wal       []stream.Update // updates applied since ckpt; kept only with CheckpointEvery > 0
	sinceCkpt int
	admitted  uint64        // updates admitted to the engine, the fault-index clock
	paused    bool          // cache-pause state applied to the current engine
	stage     []staged      // results of the in-flight sub-batch
	stageVals []tuple.Value // flat backing of stage's rows, reset with it
	mute      bool          // discard results (checkpoint replay re-processing)
	snapBase  core.Snapshot
	// guardHead / guardNext chain a guarded batch's kept updates by tuple
	// hash (1-based indexes into kept, 0 ends a chain), reset per batch.
	guardHead map[uint64]int32
	guardNext []int32
	// fragileFlag marks a shard that recovered since its last clean
	// checkpoint (worker writes, watchdog reads → atomic).
	fragileFlag atomic.Bool
}

func (ws *shardState) pending() int {
	n := ws.enq.Load() - ws.done.Load()
	if n < 0 {
		n = 0
	}
	return int(n)
}

func (ws *shardState) setHealth(h HealthState) { ws.health.Store(int32(h)) }
func (ws *shardState) getHealth() HealthState  { return HealthState(ws.health.Load()) }

// Health reports every shard's current state. Callable from any goroutine.
func (e *Engine) Health() []ShardHealth {
	out := make([]ShardHealth, len(e.states))
	for i, ws := range e.states {
		h := ShardHealth{
			Shard:      i,
			State:      ws.getHealth(),
			Recoveries: int(ws.recoveries.Load()),
			Pending:    ws.pending(),
			Shed:       ws.shed.Load(),
		}
		if msg, ok := ws.lastErr.Load().(string); ok {
			h.LastError = msg
		}
		out[i] = h
	}
	return out
}

// Recoveries returns the total successful panic recoveries across shards.
func (e *Engine) Recoveries() int {
	total := 0
	for _, ws := range e.states {
		total += int(ws.recoveries.Load())
	}
	return total
}

// CallbackPanics returns how many OnResult callback panics were swallowed.
func (e *Engine) CallbackPanics() uint64 { return e.cbPanics.Load() }

// ShedByRelation returns a copy of the per-relation shed-update counters
// (admission sheds and quarantine drains; counted per update dropped).
func (e *Engine) ShedByRelation() []uint64 {
	out := make([]uint64, len(e.shedByRel))
	for i := range e.shedByRel {
		out[i] = e.shedByRel[i].Load()
	}
	return out
}

// AdmissionWait returns the cumulative time the ingress spent blocked on
// full mailboxes.
func (e *Engine) AdmissionWait() time.Duration {
	var total int64
	for _, ws := range e.states {
		total += ws.waitNs.Load()
	}
	return time.Duration(total)
}

// MaxOccupancy returns the fullest shard mailbox as a fraction of its
// capacity in updates — the degradation ladder's pressure signal. Callable
// from the ingress at any time.
func (e *Engine) MaxOccupancy() float64 {
	cap := float64(mailboxDepth * e.batchSize)
	if cap <= 0 {
		return 0
	}
	worst := 0.0
	for _, ws := range e.states {
		if occ := float64(ws.pending()) / cap; occ > worst {
			worst = occ
		}
	}
	return worst
}

// PauseCaching asks every serving shard to pause (or resume) adaptive
// caching — the degradation ladder's cache-first rung. It records the desired
// state; each worker applies it before its next sub-batch, so a loaded
// ingress never waits on a busy worker and no request is lost.
func (e *Engine) PauseCaching(paused bool) { e.pauseWant.Store(paused) }

// ── Ingress side: admission, shedding, context-bounded flushing ──────────────

func (e *Engine) countShed(rel int) {
	if rel >= 0 && rel < len(e.shedByRel) {
		e.shedByRel[rel].Add(1)
	}
}

// The disposition model: every update's fate — submitted to its shard or
// shed — is decided exactly once, on the ingress goroutine, in per-route
// stream order (submission order; under shed-oldest, deque order with
// evictions taken front-first, which precede every later disposition). A shed
// insert's expiry delete may still be submitted, so after a route sheds an
// insert its batches carry batchMsg.guard, and the worker drops each delete
// whose tuple its shard does not hold (guardDeletes) — a shard never runs the
// join pipeline for a retraction of a tuple it does not hold. Because
// dispositions are strictly ordered and multiset windows make equal-valued
// instances interchangeable, every processed delete finds its tuple present:
// shard windows are exact multisets of the admitted subset. Each shed insert
// has exactly one expiry delete and only those are dropped, so the guard ends
// on its own: a route's batches carry it only while its shed inserts
// (shedIns) outnumber the deletes its worker dropped (filtered).

// send hands a batch to the shard's mailbox. The send blocks only if the
// caller did not first observe space (single producer: an observed len < cap
// cannot be invalidated by anyone but this goroutine).
func (e *Engine) send(route int, ups []stream.Update) {
	if len(ups) == 0 {
		return
	}
	ws := e.states[route]
	ws.enq.Add(int64(len(ups)))
	guard := e.shedIns[route] > 0 && e.shedIns[route] > ws.filtered.Load()
	e.mail[route] <- batchMsg{ups: ups, guard: guard}
}

// evict disposes a batch's inserts as shed and returns its deletes
// undisposed: deletes of admitted tuples must still shrink the window, and
// the shed inserts are counted so the worker guards the route's later
// deletes against their expiries.
func (e *Engine) evict(route int, ups []stream.Update) []stream.Update {
	ws := e.states[route]
	var kept []stream.Update
	for _, u := range ups {
		if u.Op == stream.Insert {
			e.countShed(u.Rel)
			ws.shed.Add(1)
			e.shedIns[route]++
			continue
		}
		kept = append(kept, u)
	}
	return kept
}

// shedBatch disposes a batch as shed; its deletes are deferred and ride in
// front of the route's next submission (so under shedding a window may
// transiently exceed its nominal size until they land).
func (e *Engine) shedBatch(route int, ups []stream.Update) {
	if kept := e.evict(route, ups); len(kept) > 0 {
		e.pending[route] = append(e.pending[route], kept...)
	}
}

// hasSpace reports whether the route's mailbox can take a batch without
// blocking. Only the worker shrinks the queue, so a true result holds until
// the ingress itself sends.
func (e *Engine) hasSpace(route int) bool {
	return len(e.mail[route]) < cap(e.mail[route])
}

// waitSpace polls for mailbox space until the timeout or context fires.
// Polling (rather than a channel send that might have to be retracted) keeps
// disposition atomic: a batch is disposed only once its fate is certain.
func (e *Engine) waitSpace(route int, timeoutC <-chan time.Time, done <-chan struct{}) bool {
	for !e.hasSpace(route) {
		select {
		case <-timeoutC:
			return false
		case <-done:
			return false
		default:
			time.Sleep(20 * time.Microsecond)
		}
	}
	return true
}

// submit is the Batcher emit callback: it prepends deferred deletes, then
// disposes the batch under the admission policy. Ingress goroutine only.
func (e *Engine) submit(route int, ups []stream.Update) {
	if e.admission == AdmitShedOldest {
		e.submitShedOldest(route, ups)
		return
	}
	if p := e.pending[route]; len(p) > 0 {
		ups = append(p, ups...)
		e.pending[route] = nil
	}
	if e.hasSpace(route) {
		e.send(route, ups)
		return
	}
	if e.admission == AdmitReject {
		e.shedBatch(route, ups)
		return
	}
	// AdmitBlock: backpressure, optionally bounded by OfferTimeout or the
	// caller's OfferContext/FlushContext deadline.
	ws := e.states[route]
	start := time.Now()
	var timeoutC <-chan time.Time
	if e.offerTimeout > 0 {
		timer := time.NewTimer(e.offerTimeout)
		defer timer.Stop()
		timeoutC = timer.C
	}
	var done <-chan struct{}
	if e.subCtx != nil {
		done = e.subCtx.Done()
	}
	if timeoutC == nil && done == nil {
		// Unbounded backpressure: dispose now and block on the channel.
		e.send(route, ups)
		ws.waitNs.Add(time.Since(start).Nanoseconds())
		return
	}
	ok := e.waitSpace(route, timeoutC, done)
	ws.waitNs.Add(time.Since(start).Nanoseconds())
	if ok {
		e.send(route, ups)
		return
	}
	if done != nil && e.subCtx.Err() != nil && e.subErr == nil {
		e.subErr = fmt.Errorf("shard %d: admission blocked, batch shed: %w",
			route, e.subCtx.Err())
	}
	e.shedBatch(route, ups)
}

// submitShedOldest queues the batch behind the route's deque, drains the
// deque front into available mailbox space, and evicts the oldest queued
// batches once the deque exceeds its depth — freshest data wins. The deque
// sits in front of the mailbox so an eviction always precedes the
// disposition of every update behind it; the in-flight insert/delete pairs
// a mailbox eviction would tear cannot exist.
func (e *Engine) submitShedOldest(route int, ups []stream.Update) {
	dq := append(e.deque[route], ups)
	i := 0
	for i < len(dq) && e.hasSpace(route) {
		e.send(route, dq[i])
		i++
	}
	dq = dq[i:]
	for len(dq) > mailboxDepth {
		kept := e.evict(route, dq[0])
		dq = dq[1:]
		if len(kept) == 0 {
			continue
		}
		if len(dq) == 0 {
			dq = [][]stream.Update{kept}
		} else {
			// Retained deletes are older than everything still queued: they
			// merge into the front so disposition order stays stream order.
			dq[0] = append(kept, dq[0]...)
		}
	}
	e.deque[route] = dq
}

// drainDeferred pushes every route's deferred work (shed-oldest deque,
// deferred deletes) into the mailboxes, bounded by ctx. On abort the
// remainder stays queued for the next flush.
func (e *Engine) drainDeferred(ctx context.Context) error {
	done := ctx.Done()
	for route, dq := range e.deque {
		for len(dq) > 0 {
			if !e.waitSpace(route, nil, done) {
				e.deque[route] = dq
				return ctx.Err()
			}
			e.send(route, dq[0])
			dq = dq[1:]
		}
		e.deque[route] = nil
	}
	for route, p := range e.pending {
		if len(p) == 0 {
			continue
		}
		if !e.waitSpace(route, nil, done) {
			return ctx.Err()
		}
		e.send(route, p)
		e.pending[route] = nil
	}
	return nil
}

// OfferContext is Offer bounded by ctx: if admitting the update blocks on a
// full mailbox past the context's deadline, the blocked batch is shed
// (counted, with its deletes deferred) and the context's error is returned.
// The update itself is still accounted: either admitted or part of the shed
// batch.
func (e *Engine) OfferContext(ctx context.Context, u stream.Update) error {
	e.subCtx, e.subErr = ctx, nil
	e.Offer(u)
	err := e.subErr
	e.subCtx, e.subErr = nil, nil
	return err
}

// Shed returns the total updates dropped across shards (admission sheds and
// quarantine drains; filtered deletes are counted separately).
func (e *Engine) Shed() uint64 {
	var total uint64
	for _, ws := range e.states {
		total += ws.shed.Load()
	}
	return total
}

// QueueDepth returns the updates buffered between the ingress and the shard
// engines: ingress batches, deferred deletes, and mailbox backlogs. Ingress
// goroutine only (it reads the batcher).
func (e *Engine) QueueDepth() int {
	n := e.ing.Pending()
	for _, p := range e.pending {
		n += len(p)
	}
	for _, dq := range e.deque {
		for _, b := range dq {
			n += len(b)
		}
	}
	for _, ws := range e.states {
		n += ws.pending()
	}
	return n
}

// ── Worker side: panic isolation, checkpoint/replay recovery, quarantine ─────

// worker drains shard i's mailbox: processing is panic-isolated, and a
// quarantined shard keeps consuming (shedding) so flushes never wedge.
func (e *Engine) worker(i int) {
	defer e.wg.Done()
	ws := e.states[i]
	for m := range e.mail[i] {
		if len(m.ups) > 0 {
			switch {
			case ws.getHealth() == Quarantined:
				e.shedUpdates(ws, m.ups)
			case m.guard:
				e.process(i, ws, e.guardDeletes(i, ws, m.ups))
			default:
				e.process(i, ws, m.ups)
			}
		}
		if m.ack != nil {
			ws.beat.Add(1)
			m.ack <- struct{}{}
		}
	}
}

// guardDeletes drops, in place, each delete of a tuple shard i does not hold
// — the expiry of an insert its route shed. A tuple's holding is the batch's
// earlier kept inserts minus its earlier kept deletes (found by a hash chain
// over kept), plus the store's count when those alone do not settle it,
// counted without charging the meter. Dropped deletes are retired (done) and
// counted in filtered and filteredDeletes.
func (e *Engine) guardDeletes(i int, ws *shardState, ups []stream.Update) []stream.Update {
	exec := e.shards[i].Exec()
	if ws.guardHead == nil {
		ws.guardHead = make(map[uint64]int32)
	}
	clear(ws.guardHead)
	ws.guardNext = ws.guardNext[:0]
	kept := ups[:0]
	for _, u := range ups {
		h := tuple.HashTuple(u.Tuple, uint64(u.Rel))
		if u.Op == stream.Delete {
			held := 0
			for k := ws.guardHead[h]; k > 0; k = ws.guardNext[k-1] {
				if p := kept[k-1]; p.Rel == u.Rel && p.Tuple.Equal(u.Tuple) {
					if p.Op == stream.Insert {
						held++
					} else {
						held--
					}
				}
			}
			if held <= 0 {
				held += exec.Store(u.Rel).Holding(u.Tuple)
			}
			if held <= 0 {
				e.filteredDeletes.Add(1)
				ws.filtered.Add(1)
				ws.done.Add(1)
				continue
			}
		}
		ws.guardNext = append(ws.guardNext, ws.guardHead[h])
		kept = append(kept, u)
		ws.guardHead[h] = int32(len(kept))
	}
	return kept
}

// process feeds a mailbox batch to the shard engine in committed
// sub-batches, splitting at injector trigger indexes so faults land at exact
// update positions, and shedding the remainder if the shard quarantines
// mid-batch.
func (e *Engine) process(i int, ws *shardState, ups []stream.Update) {
	pos := 0
	for pos < len(ups) {
		if ws.getHealth() == Quarantined {
			e.shedUpdates(ws, ups[pos:])
			return
		}
		n := len(ups) - pos
		next := ws.admitted + 1 // 1-based index of the next update
		if at, ok := e.inj.Next(i, next, next+uint64(n)); ok {
			if pre := int(at - next); pre > 0 {
				// Commit the fault-free prefix first, then re-split: a
				// recovery in between may re-arm or consume triggers.
				if e.applySeg(i, ws, ups[pos:pos+pre], 0, false) {
					pos += pre
				}
				continue
			}
			// The trigger lands on the very next update: process it alone so
			// the fault fires at exactly its configured index.
			if e.applySeg(i, ws, ups[pos:pos+1], at, true) {
				pos++
			}
			continue
		}
		if e.applySeg(i, ws, ups[pos:pos+n], 0, false) {
			pos += n
		}
	}
}

// applySeg processes one sub-batch transactionally: on success it delivers
// the staged results and, with recovery enabled, logs the sub-batch for
// replay and checkpoints when due; on panic it discards the staged results
// and either recovers (rebuild from checkpoint + replay; the caller retries
// the sub-batch) or quarantines. Returns whether the sub-batch committed.
func (e *Engine) applySeg(i int, ws *shardState, seg []stream.Update, fireAt uint64, fire bool) bool {
	err := e.tryProcess(i, ws, seg, fireAt, fire)
	if err == nil {
		e.deliverStage(ws)
		ws.admitted += uint64(len(seg))
		ws.done.Add(int64(len(seg)))
		ws.beat.Add(1)
		if e.ckptEvery > 0 {
			ws.wal = append(ws.wal, seg...)
			if ws.sinceCkpt += len(seg); ws.sinceCkpt >= e.ckptEvery {
				e.takeCheckpoint(i, ws)
			}
		}
		return true
	}
	ws.stage, ws.stageVals = ws.stage[:0], ws.stageVals[:0]
	ws.lastErr.Store(err.Error())
	if e.ckptEvery <= 0 || int(ws.recoveries.Load()) >= e.maxRecoveries {
		ws.setHealth(Quarantined)
		return false
	}
	ws.setHealth(Recovering)
	if rerr := e.rebuild(i, ws); rerr != nil {
		ws.lastErr.Store(rerr.Error())
		ws.setHealth(Quarantined)
		return false
	}
	ws.recoveries.Add(1)
	ws.fragileFlag.Store(true)
	ws.setHealth(Degraded)
	ws.beat.Add(1)
	return false
}

// tryProcess runs one sub-batch under a recover barrier. The ladder's
// desired cache-pause state is applied first. An armed fault fires before the
// sub-batch (matching the injector's "before the nth update" contract); a
// Collapse fault zeroes the shard's cache budget.
func (e *Engine) tryProcess(i int, ws *shardState, seg []stream.Update, fireAt uint64, fire bool) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("shard %d: panic: %v", i, r)
		}
	}()
	if want := e.pauseWant.Load(); want != ws.paused {
		e.shards[i].SetCachingPaused(want)
		ws.paused = want
	}
	if fire {
		if e.inj.Fire(i, fireAt) {
			e.shards[i].SetMemoryBudget(0)
		}
	}
	e.shards[i].ProcessBatch(seg)
	return nil
}

// deliverStage hands the committed sub-batch's staged results to the user
// callback, each panic-contained.
func (e *Engine) deliverStage(ws *shardState) {
	if len(ws.stage) == 0 {
		return
	}
	e.resMu.Lock()
	for _, s := range ws.stage {
		e.safeCall(s.insert, s.vals)
	}
	e.resMu.Unlock()
	ws.stage, ws.stageVals = ws.stage[:0], ws.stageVals[:0]
}

// attachSink wires a shard engine's result callback. Without recovery no
// sub-batch is ever retried, so results go straight to the user callback.
// With it they go to the shard's stage buffer (muted during checkpoint
// replay, whose results were already delivered before the crash). The
// engine's row is valid only during the callback, so the stage copies it
// into stageVals; a row staged before stageVals grew keeps pointing at the
// old backing, which still holds it.
func (e *Engine) attachSink(i int, en *core.Engine) {
	if e.ckptEvery <= 0 {
		en.OnResult(func(ins bool, vals []tuple.Value) {
			e.resMu.Lock()
			e.safeCall(ins, vals)
			e.resMu.Unlock()
		})
		return
	}
	ws := e.states[i]
	en.OnResult(func(ins bool, vals []tuple.Value) {
		if ws.mute {
			return
		}
		off, end := len(ws.stageVals), len(ws.stageVals)+len(vals)
		ws.stageVals = append(ws.stageVals, vals...)
		ws.stage = append(ws.stage, staged{insert: ins, vals: ws.stageVals[off:end:end]})
	})
}

// takeCheckpoint captures the shard's windows and counters. The stored
// snapshot is made cumulative from the stream start (folding in snapBase) so
// repeated recoveries from the same checkpoint never double-count.
func (e *Engine) takeCheckpoint(i int, ws *shardState) {
	ck := e.shards[i].Checkpoint()
	ck.Snap.AddSnapshot(ws.snapBase)
	ws.ckpt = ck
	ws.wal = ws.wal[:0]
	ws.sinceCkpt = 0
	if ws.fragileFlag.Load() {
		// A clean checkpoint after recovery: the shard is whole again.
		ws.fragileFlag.Store(false)
		ws.health.CompareAndSwap(int32(Degraded), int32(Healthy))
	}
}

// rebuild replaces a panicked shard engine: a fresh engine from the factory,
// windows restored from the last checkpoint, and the replay log reapplied
// with result delivery muted. The rebuilt engine starts cache-cold — the
// paper's consistency-without-completeness property makes that exact, just
// temporarily slower.
func (e *Engine) rebuild(i int, ws *shardState) error {
	en, err := e.mk(i)
	if err != nil {
		return err
	}
	if err := en.RestoreWindows(ws.ckpt); err != nil {
		return err
	}
	if ws.ckpt != nil {
		ws.snapBase = ws.ckpt.Snap
	} else {
		ws.snapBase = core.Snapshot{}
	}
	if e.userCB != nil {
		e.attachSink(i, en)
	}
	e.shards[i] = en
	ws.paused = false // the next sub-batch re-applies the ladder's pause
	if len(ws.wal) > 0 {
		ws.mute = true
		err := func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("shard %d: replay panic: %v", i, r)
				}
			}()
			en.ProcessBatch(ws.wal)
			return nil
		}()
		ws.mute = false
		if err != nil {
			return err
		}
	}
	ws.sinceCkpt = len(ws.wal)
	return nil
}

// shedUpdates drops a quarantined shard's input, keeping the counters (and
// the flush barrier) honest.
func (e *Engine) shedUpdates(ws *shardState, ups []stream.Update) {
	for _, u := range ups {
		e.countShed(u.Rel)
	}
	ws.shed.Add(uint64(len(ups)))
	ws.done.Add(int64(len(ups)))
	ws.beat.Add(1)
}

// watchdog flags shards that stop draining a non-empty mailbox for longer
// than the stall threshold, and clears the flag when progress resumes. It
// never touches worker state — it only moves Healthy ↔ Degraded, so a panic
// recovery in flight (Recovering / Quarantined) is left alone.
func (e *Engine) watchdog(stall time.Duration) {
	defer e.wg.Done()
	type obs struct {
		beat    uint64
		since   time.Time
		flagged bool
	}
	last := make([]obs, len(e.states))
	now := time.Now()
	for i := range last {
		last[i] = obs{beat: e.states[i].beat.Load(), since: now}
	}
	tick := stall / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-e.stopWatch:
			return
		case now = <-ticker.C:
		}
		for i, ws := range e.states {
			beat := ws.beat.Load()
			if beat != last[i].beat {
				last[i] = obs{beat: beat, since: now, flagged: false}
				if ws.getHealth() == Degraded && !ws.fragileFlag.Load() {
					// Stall cleared and the shard is not post-recovery
					// fragile: back to healthy.
					ws.health.CompareAndSwap(int32(Degraded), int32(Healthy))
				}
				continue
			}
			if !last[i].flagged && ws.pending() > 0 && now.Sub(last[i].since) >= stall {
				last[i].flagged = true
				ws.health.CompareAndSwap(int32(Healthy), int32(Degraded))
			}
		}
	}
}
