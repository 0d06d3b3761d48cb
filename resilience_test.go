package acache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestShardedPanicRecoveryMatchesSerial is the headline chaos scenario: a
// panic injected into 1 of 4 shards mid-stream. The engine must keep
// serving, Health must report the recovery, and — because nothing was shed —
// the result multiset and final window contents must match a serial
// reference exactly. Sub-batches here commit several results at a time, and
// the bags format each row when it is delivered, so this is also the guard
// that the resilient stage copies the engine's row buffer (aliasing it
// delivers every staged row as the sub-batch's last).
func TestShardedPanicRecoveryMatchesSerial(t *testing.T) {
	n := 2500
	if testing.Short() {
		n = 600
	}
	ops := randomOps(17, n, []string{"R0", "R1", "R2", "R3", "R4"},
		[]int{2, 2, 2, 2, 2}, 8)

	serial, err := fiveWayStar().Build(Options{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	serialBag := newResultBag()
	serial.OnResult(serialBag.hook())

	inj := NewFaultInjector().PanicAt(2, 60)
	eng, err := fiveWayStar().BuildSharded(Options{Seed: 21}, ShardOptions{
		Shards:    4,
		BatchSize: 16,
		Resilience: ResilienceOptions{
			CheckpointEvery: 32,
			FaultInjector:   inj,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	bag := newResultBag()
	eng.OnResult(bag.hook())

	for _, op := range ops {
		serial.Append(op.rel, op.vals...)
		eng.Append(op.rel, op.vals...)
	}
	eng.Flush()

	if panics, _, _, _ := inj.Counts(); panics != 1 {
		t.Fatalf("injector fired %d panics, want 1", panics)
	}
	st := eng.Stats()
	if st.Recoveries != 1 {
		t.Fatalf("Stats.Recoveries = %d, want 1", st.Recoveries)
	}
	if st.Shedded != 0 {
		t.Fatalf("Stats.Shedded = %d, want 0 (blocking admission)", st.Shedded)
	}
	health := eng.Health()
	if health[2].Recoveries != 1 || health[2].LastError == "" {
		t.Fatalf("shard 2 health = %+v, want one recorded recovery", health[2])
	}
	if health[2].State == Quarantined {
		t.Fatalf("shard 2 quarantined; recovery should have succeeded")
	}

	if want, got := serial.Stats().Outputs, st.Outputs; got != want {
		t.Errorf("outputs = %d, want %d", got, want)
	}
	diffBags(t, "post-recovery results", serialBag.m, bag.m)
	for rel, name := range serial.q.names {
		want := storeBag(serial.core.Exec().Store(rel))
		got := make(map[string]int)
		for s := 0; s < eng.NumShards(); s++ {
			for k, c := range storeBag(eng.sh.Shard(s).Exec().Store(rel)) {
				got[k] += c
			}
		}
		diffBags(t, fmt.Sprintf("window %s (merged)", name), want, got)
	}
}

// TestDegradationLadder stalls one shard so the worst-shard occupancy pins
// at 1 and asserts the ladder climbs to rung 2 (caches paused, input
// shedding, exact per-relation accounting), defers server grants, and steps
// back down to 0 once the overload clears.
func TestDegradationLadder(t *testing.T) {
	inj := NewFaultInjector().StallAt(0, 1)
	eng, err := fiveWayStar().BuildSharded(Options{Seed: 5}, ShardOptions{
		Shards:    4,
		BatchSize: 4,
		Resilience: ResilienceOptions{
			Admission:        AdmitShedOldest,
			DegradeHighWater: 0.5,
			FaultInjector:    inj,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	ops := randomOps(19, 2000, []string{"R0", "R1", "R2", "R3", "R4"},
		[]int{2, 2, 2, 2, 2}, 8)
	for _, op := range ops {
		eng.Append(op.rel, op.vals...)
	}
	if lvl := eng.DegradeLevel(); lvl != 2 {
		t.Fatalf("DegradeLevel = %d under a pinned mailbox, want 2", lvl)
	}
	if eng.ladder.shedTotal == 0 {
		t.Fatal("rung 2 shed nothing at the window ingress")
	}
	// A server grant arriving while degraded is deferred, not applied.
	eng.applyGrant(1 << 20)
	if !eng.grantDeferred {
		t.Fatal("budget grant applied while the ladder is engaged")
	}

	var st Stats
	eng.fillResilienceStats(&st)
	if st.DegradeLevel != 2 {
		t.Fatalf("Stats.DegradeLevel = %d, want 2", st.DegradeLevel)
	}
	var byRel uint64
	for _, c := range st.SheddedByRelation {
		byRel += c
	}
	if byRel != st.Shedded || st.Shedded == 0 {
		t.Fatalf("SheddedByRelation sums to %d, Shedded = %d", byRel, st.Shedded)
	}

	// Clear the overload: the stalled worker resumes and the queues drain.
	// Under a light trickle (flush after every append, so occupancy is ~0 at
	// each ladder check) the ladder steps down one rung per check until
	// normal operation resumes and the deferred grant lands.
	inj.Release()
	eng.Flush()
	for i := 0; i < 4*ladderCheckEvery && eng.DegradeLevel() > 0; i++ {
		eng.Append("R0", 1, 1)
		eng.Flush()
	}
	if lvl := eng.DegradeLevel(); lvl != 0 {
		t.Fatalf("DegradeLevel = %d after the overload cleared, want 0", lvl)
	}
	if eng.grantDeferred {
		t.Fatal("deferred grant never applied after recovery")
	}
}

// TestLadderSheddingValidatesInput: rung 2 drops well-formed rows, but a
// malformed call — wrong arity, or the wrong entry point for the relation's
// window kind — panics before the shed draw, exactly as at rung 0.
func TestLadderSheddingValidatesInput(t *testing.T) {
	eng, err := conformanceQuery().BuildSharded(Options{Seed: 5}, ShardOptions{
		Shards:     2,
		Resilience: ResilienceOptions{DegradeHighWater: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.ladder.level, eng.ladder.shedProb = 2, 1 // every draw sheds
	for name, call := range map[string]func(){
		"Append wrong arity":          func() { eng.Append("C", 1) },
		"Append time-windowed":        func() { eng.Append("T", 1) },
		"AppendContext wrong arity":   func() { eng.AppendContext(context.Background(), "P", 1, 2, 3) },
		"AppendBatch wrong arity":     func() { eng.AppendBatch("C", [][]int64{{3}, {1, 2}}) },
		"AppendBatch time-windowed":   func() { eng.AppendBatch("T", [][]int64{{1}}) },
		"AppendAt wrong arity":        func() { eng.AppendAt("T", 3, 1, 2) },
		"AppendAt count-windowed":     func() { eng.AppendAt("C", 3, 1, 2) },
		"AppendBatch empty, timed":    func() { eng.AppendBatch("T", nil) },
		"AppendAt unbounded relation": func() { eng.AppendAt("U", 3, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s at rung 2: no panic", name)
				}
			}()
			call()
		}()
	}
	if n := eng.ladder.shedTotal; n != 0 {
		t.Errorf("malformed calls reached the shed draw %d times", n)
	}
	eng.Append("C", 1, 2)
	eng.AppendBatch("P", [][]int64{{1, 2}, {3, 4}})
	eng.AppendAt("T", 7, 1)
	if n := eng.ladder.shedTotal; n != 4 {
		t.Errorf("rung 2 shed %d well-formed rows, want 4", n)
	}
}

// TestTryAppendAndAppendContext exercises the non-blocking and
// deadline-bounded ingress paths against a stalled shard.
func TestTryAppendAndAppendContext(t *testing.T) {
	inj := NewFaultInjector().StallAt(0, 1)
	eng, err := fiveWayStar().BuildSharded(Options{Seed: 9}, ShardOptions{
		Shards:    2,
		BatchSize: 1,
		Resilience: ResilienceOptions{
			FaultInjector: inj,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	ops := randomOps(29, 400, []string{"R0", "R1", "R2", "R3", "R4"},
		[]int{2, 2, 2, 2, 2}, 8)
	sawFull := false
	accepted := 0
	for _, op := range ops {
		if eng.TryAppend(op.rel, op.vals...) {
			accepted++
		} else {
			sawFull = true
			break
		}
	}
	if !sawFull {
		t.Fatal("TryAppend never reported a full engine behind a stalled shard")
	}
	if accepted == 0 {
		t.Fatal("TryAppend accepted nothing")
	}

	// A cancelled context cannot block: AppendContext shdes the blocked
	// batch and reports the cancellation once an update lands on the full
	// shard.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ctxErr error
	for _, op := range ops {
		if err := eng.AppendContext(ctx, op.rel, op.vals...); err != nil {
			ctxErr = err
			break
		}
	}
	if ctxErr == nil {
		t.Fatal("AppendContext never surfaced the cancelled context")
	}
	if !errors.Is(ctxErr, context.Canceled) {
		t.Fatalf("AppendContext error = %v, want context.Canceled", ctxErr)
	}

	// FlushContext must time out rather than wedge while the stall holds.
	tctx, tcancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer tcancel()
	if err := eng.FlushContext(tctx); err == nil {
		t.Fatal("FlushContext returned nil during a stall")
	}

	inj.Release()
	if err := eng.FlushContext(context.Background()); err != nil {
		t.Fatalf("flush after release: %v", err)
	}
	if st := eng.Stats(); st.Shedded == 0 {
		t.Fatalf("Stats.Shedded = 0 after context-shed batches")
	}
}

// TestFlushContextWithoutResilienceOptions: with zero ResilienceOptions the
// engine still runs the one recoverable shard worker, so a result callback
// that blocks cannot wedge the context-bounded calls. TryAppend reports the
// full mailboxes, a timed-out FlushContext returns, a cancelled AppendContext
// sheds and says so, and after the callback is released the engine drains.
func TestFlushContextWithoutResilienceOptions(t *testing.T) {
	eng, err := fiveWayStar().BuildSharded(Options{Seed: 9}, ShardOptions{Shards: 2, BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	entered, release := make(chan struct{}), make(chan struct{})
	var enterOnce, releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	defer unblock() // runs before Close
	eng.OnResult(func(bool, []int64) {
		enterOnce.Do(func() { close(entered) })
		<-release
	})

	ops := randomOps(29, 4000, []string{"R0", "R1", "R2", "R3", "R4"},
		[]int{2, 2, 2, 2, 2}, 8)
	// The ingress runs on its own goroutine so an engine that does wedge
	// fails the test instead of hanging it.
	done := make(chan error, 1)
	go func() { done <- blockedCallbackIngress(eng, ops, entered) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		unblock()
		<-done
		t.Fatal("ingress wedged behind a blocked result callback")
	}

	unblock()
	if err := eng.FlushContext(context.Background()); err != nil {
		t.Fatalf("flush after release: %v", err)
	}
	if st := eng.Stats(); st.Shedded == 0 {
		t.Fatal("Stats.Shedded = 0 after a context-shed batch")
	}
}

// blockedCallbackIngress drives TestFlushContextWithoutResilienceOptions'
// ingress while every result callback blocks. Until a callback has blocked,
// a full mailbox is a transient backlog: TryAppend's refusal then just skips
// the row.
func blockedCallbackIngress(eng *ShardedEngine, ops []appendOp, entered <-chan struct{}) error {
	full := false
	for _, op := range ops {
		if !eng.TryAppend(op.rel, op.vals...) {
			select {
			case <-entered:
				full = true
			default:
				time.Sleep(time.Millisecond)
			}
		}
		if full {
			break
		}
	}
	if !full {
		return errors.New("TryAppend never reported the full mailboxes")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := eng.FlushContext(ctx); !errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("FlushContext behind a blocked callback = %v, want the deadline", err)
	}
	cctx, ccancel := context.WithCancel(context.Background())
	ccancel()
	for _, op := range ops {
		if err := eng.AppendContext(cctx, op.rel, op.vals...); err != nil {
			if !errors.Is(err, context.Canceled) {
				return fmt.Errorf("AppendContext error = %v, want context.Canceled", err)
			}
			return nil
		}
	}
	return errors.New("AppendContext never surfaced the cancelled context")
}

// TestServerResilience hosts a resilient sharded query, drives a panic
// through it, and asserts the server surfaces the recovery via Health and
// survives Deregister after a user-initiated Close (idempotent Close).
func TestServerResilience(t *testing.T) {
	srv := NewServer(1 << 20)
	inj := NewFaultInjector().PanicAt(1, 30)
	eng, err := srv.RegisterSharded("q", fiveWayStar(), Options{Seed: 3}, ShardOptions{
		Shards:    2,
		BatchSize: 8,
		Resilience: ResilienceOptions{
			CheckpointEvery: 16,
			FaultInjector:   inj,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range randomOps(31, 400, []string{"R0", "R1", "R2", "R3", "R4"},
		[]int{2, 2, 2, 2, 2}, 8) {
		eng.Append(op.rel, op.vals...)
	}
	eng.Flush()
	if panics, _, _, _ := inj.Counts(); panics != 1 {
		t.Fatalf("injector fired %d panics, want 1", panics)
	}
	health := srv.Health()["q"]
	if len(health) != 2 || health[1].Recoveries != 1 {
		t.Fatalf("server health = %+v, want one recovery on shard 1", health)
	}
	if st := srv.Stats()["q"]; st.Recoveries != 1 {
		t.Fatalf("server stats recoveries = %d, want 1", st.Recoveries)
	}

	eng.Close()         // user closes first …
	eng.Close()         // … twice, even
	srv.Deregister("q") // … and the server's own Close must still be safe
	if srv.Sharded("q") != nil {
		t.Fatal("query still registered after Deregister")
	}
}
