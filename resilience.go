package acache

import (
	"context"
	"math/rand"
	"time"

	"acache/internal/fault"
	"acache/internal/shard"
)

// HealthState is a shard's coarse condition: Healthy, Degraded (stalled or
// recently recovered), Recovering (rebuilding from checkpoint), or
// Quarantined (failed permanently; its slice of the stream is shed).
type HealthState = shard.HealthState

const (
	Healthy     = shard.Healthy
	Degraded    = shard.Degraded
	Recovering  = shard.Recovering
	Quarantined = shard.Quarantined
)

// ShardHealth is one shard's health report: state, recovery count, queued
// updates, updates shed by that shard, and the last worker error.
type ShardHealth = shard.ShardHealth

// FaultInjector arms deterministic faults (panic at the Nth update of shard
// k, slow worker, stalled consumer, budget collapse) for chaos tests and
// overload experiments. Production engines pass nil.
type FaultInjector = fault.Injector

// NewFaultInjector returns an empty injector; arm it with PanicAt, SlowAt,
// SlowEvery, StallAt, and CollapseBudgetAt (shard −1 matches every shard).
func NewFaultInjector() *FaultInjector { return fault.New() }

// ResilienceOptions tune overload and fault handling for sharded execution.
// Every sharded engine runs the same recoverable shard worker; a feature costs
// nothing until its option is set. The zero value blocks the ingress on a
// full mailbox, quarantines a panicking shard without keeping a replay log,
// and runs no watchdog or ladder. A quarantined shard's input is shed for
// good and no call returns an error for it, so callers that must not serve
// incomplete results set CheckpointEvery or watch Health and Stats().Shedded.
//
// Every drop happens before a tuple enters its window, so windows stay exact
// multisets of what was accepted and no orphan expiry delete is ever
// produced. A caller that must not block refuses rows itself: TryAppend
// returns false and AppendContext returns its context's error, each with the
// window untouched and no counter moved. The degradation ladder
// (DegradeHighWater > 0) follows the paper's order of sacrifice. Caches obey
// consistency but not completeness (§3.2), so rung 1 pauses adaptive caching
// — near-zero switch cost and results stay exact — and only rung 2 sheds
// input tuples at the window ingress, keeping per-relation counts so results
// are a well-defined subset.
type ResilienceOptions struct {
	// CheckpointEvery enables panic recovery: each shard checkpoints its
	// windows every CheckpointEvery processed updates and, after a worker
	// panic, rebuilds its engine from checkpoint + replay. ≤ 0 quarantines a
	// panicking shard immediately.
	CheckpointEvery int
	// MaxRecoveries caps recoveries per shard before quarantine (0 with
	// checkpoints on defaults to 3; < 0 disables recovery).
	MaxRecoveries int
	// StallTimeout enables a watchdog that marks a shard Degraded when it
	// has queued work but makes no progress for this long.
	StallTimeout time.Duration
	// DegradeHighWater enables the degradation ladder: when the most loaded
	// shard's mailbox occupancy (0..1) reaches it, the engine climbs one
	// rung (1: pause caches; 2: shed window input with probability
	// ladderShedProb); at half of it, the engine steps back down a rung.
	DegradeHighWater float64
	// FaultInjector arms deterministic faults for chaos tests; nil in
	// production.
	FaultInjector *FaultInjector
}

// ladderCheckEvery is how many routed updates, ladder-shed rows and refused
// rows pass between occupancy checks: cheap enough to be negligible, frequent
// enough to react within a fraction of a mailbox drain.
const ladderCheckEvery = 256

// ladderShedProb is the rung-2 probability of dropping an appended tuple:
// high enough to relieve a saturated shard within a few checks, low enough
// that the ladder keeps seeing the load it must judge.
const ladderShedProb = 0.5

// ladderState is the degradation ladder: level 0 runs normally, level 1
// pauses adaptive caching on every shard, level 2 additionally sheds window
// input with probability shedProb. Only the ingress goroutine touches it.
type ladderState struct {
	on         bool
	high, low  float64
	shedProb   float64
	level      int
	rng        *rand.Rand
	sinceCheck int
	shed       []uint64 // per-relation tuples dropped at the window ingress
	shedTotal  uint64
}

func newLadder(r ResilienceOptions, rels int, seed int64) ladderState {
	l := ladderState{on: r.DegradeHighWater > 0}
	if !l.on {
		return l
	}
	l.high = r.DegradeHighWater
	l.low = l.high / 2
	l.shedProb = ladderShedProb
	l.rng = rand.New(rand.NewSource(seed ^ 0x5eed1adde7))
	l.shed = make([]uint64, rels)
	return l
}

// tickLadder advances the ladder clock and, every ladderCheckEvery ticks,
// moves one rung up or down based on worst-shard mailbox occupancy, with
// hysteresis between the two watermarks.
func (e *ShardedEngine) tickLadder() {
	l := &e.ladder
	if !l.on {
		return
	}
	l.sinceCheck++
	if l.sinceCheck < ladderCheckEvery {
		return
	}
	l.sinceCheck = 0
	occ := e.sh.MaxOccupancy()
	switch {
	case occ >= l.high && l.level < 2:
		l.level++
		if l.level == 1 {
			e.sh.PauseCaching(true)
		}
	case occ <= l.low && l.level > 0:
		l.level--
		if l.level == 0 {
			e.sh.PauseCaching(false)
			if e.grantDeferred {
				e.sh.SetMemoryBudget(e.deferredGrant)
				e.grantDeferred = false
			}
		}
	}
}

// shedIngress decides whether a row appended to relation idx — through
// AppendAt when timed — is dropped by the rung-2 ladder before it enters its
// window (so no expiry delete is ever generated for it). Counted per relation
// for Stats. The row is validated before the draw, so a malformed call panics
// at every rung.
func (e *ShardedEngine) shedIngress(idx int, values []int64, timed bool) bool {
	l := &e.ladder
	if l.level < 2 {
		return false
	}
	e.q.checkArity(idx, values)
	e.checkKind(idx, timed)
	if l.rng.Float64() >= l.shedProb {
		return false
	}
	l.shed[idx]++
	l.shedTotal++
	e.tickLadder() // shed tuples still advance the ladder clock
	return true
}

// DegradeLevel returns the ladder rung in effect: 0 normal, 1 caches
// paused, 2 caches paused + input shedding.
func (e *ShardedEngine) DegradeLevel() int { return e.ladder.level }

// Health reports each shard's condition. Safe to call while the engine is
// running (it does not quiesce the shards).
func (e *ShardedEngine) Health() []ShardHealth { return e.sh.Health() }

// FlushContext is Flush bounded by ctx: it returns ctx's error instead of
// wedging when a shard is stalled. A timed-out flush sheds nothing and
// leaves the engine usable; updates it could not hand over stay queued, in
// order.
func (e *ShardedEngine) FlushContext(ctx context.Context) error {
	return e.sh.FlushContext(ctx)
}

// appendUpdatesPerRoute bounds the updates one appended row sends to a
// shard: its insert and the expiry delete it forces out, both of which a
// broadcast relation sends to every shard.
const appendUpdatesPerRoute = 2

// AppendContext is Append bounded by ctx: before the window advances it
// waits, bounded by ctx, until every shard's mailbox has room for what the
// row can send it, so the routing that follows never blocks. (Which shard
// the expiry delete goes to is known only once the window has advanced, so
// every shard's room is awaited.) If ctx expires first, or had already, it
// returns ctx's error and the row is refused: the window is untouched and
// no counter moves — the caller decides whether to retry, spill or count it
// as shed — but the refusal ticks the degradation ladder's clock. A context
// that cannot expire makes it Append.
func (e *ShardedEngine) AppendContext(ctx context.Context, rel string, values ...int64) error {
	idx := e.q.relIndex(rel)
	if err := e.sh.WaitRoom(ctx, appendUpdatesPerRoute); err != nil {
		e.tickLadder()
		return err
	}
	e.feed(e.appendRow(idx, values))
	return nil
}

// TryAppend is a non-blocking Append: it returns false — without touching
// the window — when some shard's mailbox lacks room for what the row can
// send it (the room check AppendContext waits on), letting the caller apply
// its own policy (retry, spill, drop). A refusal ticks the ladder's clock,
// as a routed update does, so the ladder climbs when every row is refused.
func (e *ShardedEngine) TryAppend(rel string, values ...int64) bool {
	if !e.sh.Room(appendUpdatesPerRoute) {
		e.tickLadder()
		return false
	}
	e.Append(rel, values...)
	return true
}
