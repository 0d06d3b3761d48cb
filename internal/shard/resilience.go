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
	// Shed counts updates dropped for this shard while it was quarantined.
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
	// ingress time spent waiting for room in this mailbox. The ingress writes enq per
	// batch and the worker writes done and beat per batch: the pad keeps the
	// two sides off one cache line, which would otherwise cross between cores
	// twice per Append+Flush round trip.
	enq    atomic.Int64
	waitNs atomic.Int64
	_      [64]byte
	done   atomic.Int64

	health     atomic.Int32
	recoveries atomic.Int64
	lastErr    atomic.Value // string
	// beat increments on every worker progress step — the watchdog's
	// heartbeat.
	beat atomic.Uint64
	// shed counts updates dropped for this shard while it was quarantined.
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

// ShedByRelation returns a copy of the per-relation counters of updates
// quarantined shards dropped.
func (e *Engine) ShedByRelation() []uint64 {
	out := make([]uint64, len(e.shedByRel))
	for i := range e.shedByRel {
		out[i] = e.shedByRel[i].Load()
	}
	return out
}

// AdmissionWait returns the cumulative time the ingress spent waiting for
// room in full mailboxes.
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

// ── Ingress side: mailbox room, blocking submission ─────────────────────────

func (e *Engine) countShed(rel int) {
	if rel >= 0 && rel < len(e.shedByRel) {
		e.shedByRel[rel].Add(1)
	}
}

// submit is the Batcher emit callback: it hands a batch to the route's
// mailbox, blocking while the mailbox is full (backpressure). A caller that
// must not block checks Room or WaitRoom before it offers. Ingress goroutine
// only.
func (e *Engine) submit(route int, ups []stream.Update) {
	ws := e.states[route]
	ws.enq.Add(int64(len(ups)))
	m := batchMsg{ups: ups}
	if e.free(route) > 0 {
		e.mail[route] <- m
		return
	}
	start := time.Now()
	e.mail[route] <- m
	ws.waitNs.Add(time.Since(start).Nanoseconds())
}

// free returns the route's free mailbox slots. Only the worker frees a slot
// and only the ingress takes one, so the ingress can rely on what it reads
// until it sends.
func (e *Engine) free(route int) int { return cap(e.mail[route]) - len(e.mail[route]) }

// batchesFor returns how many batches n more updates offered to route would
// complete, counting the updates its ingress batch already holds.
func (e *Engine) batchesFor(route, n int) int { return (e.ing.Len(route) + n) / e.batchSize }

// Room reports whether n more updates on every route can be offered without
// blocking: the batches they would complete fit the free slots of each
// mailbox. It counts slots, not queued updates, because flush acks a
// timed-out FlushContext left behind take slots too. Ingress goroutine only.
func (e *Engine) Room(n int) bool {
	for route := range e.mail {
		if e.free(route) < e.batchesFor(route, n) {
			return false
		}
	}
	return true
}

// WaitRoom waits, bounded by ctx, until Room(n) holds, and returns ctx's
// error if it expires first or had already expired. A context that cannot
// expire skips the wait: the offers that follow block as Offer does. Time
// spent waiting counts in AdmissionWait. Ingress goroutine only.
func (e *Engine) WaitRoom(ctx context.Context, n int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	done := ctx.Done()
	if done == nil {
		return nil
	}
	for route := range e.mail {
		if !e.waitFree(route, e.batchesFor(route, n), done) {
			return ctx.Err()
		}
	}
	return nil
}

// waitFree polls until the route's mailbox has the given free slots or done
// fires, and reports which came first. Polling rather than a channel send
// keeps a refused caller's input untouched: nothing is handed over until
// room is certain.
func (e *Engine) waitFree(route, slots int, done <-chan struct{}) bool {
	if e.free(route) >= slots {
		return true
	}
	ws := e.states[route]
	start := time.Now()
	for e.free(route) < slots {
		select {
		case <-done:
			ws.waitNs.Add(time.Since(start).Nanoseconds())
			return false
		default:
			time.Sleep(20 * time.Microsecond)
		}
	}
	ws.waitNs.Add(time.Since(start).Nanoseconds())
	return true
}

// Shed returns the total updates quarantined shards dropped.
func (e *Engine) Shed() uint64 {
	var total uint64
	for _, ws := range e.states {
		total += ws.shed.Load()
	}
	return total
}

// QueueDepth returns the updates buffered between the ingress and the shard
// engines: ingress batches and mailbox backlogs. Ingress goroutine only (it
// reads the batcher).
func (e *Engine) QueueDepth() int {
	n := e.ing.Pending()
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
			if ws.getHealth() == Quarantined {
				e.shedUpdates(ws, m.ups)
			} else {
				e.process(i, ws, m.ups)
			}
		}
		if m.ack != nil {
			ws.beat.Add(1)
			m.ack <- struct{}{}
		}
	}
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
