package acache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"acache/internal/stream"
	"acache/internal/tuple"
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
// back down to 0 once the overload clears. Rows go through TryAppend, which
// refuses them once the stalled shard's mailbox is full; the large batches
// leave the ladder enough accepted rows to climb before that.
func TestDegradationLadder(t *testing.T) {
	inj := NewFaultInjector().StallAt(0, 1)
	eng, err := fiveWayStar().BuildSharded(Options{Seed: 5}, ShardOptions{
		Shards:    4,
		BatchSize: 64,
		Resilience: ResilienceOptions{
			DegradeHighWater: 0.5,
			FaultInjector:    inj,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	defer inj.Release() // runs before Close, so a failure cannot wedge it

	// Feed until the ladder has climbed and the stalled shard refuses rows:
	// how many rows that takes depends on how soon the other workers'
	// backlog lifts the ladder.
	ops := randomOps(19, 20000, []string{"R0", "R1", "R2", "R3", "R4"},
		[]int{2, 2, 2, 2, 2}, 8)
	refused := 0
	for _, op := range ops {
		if !eng.TryAppend(op.rel, op.vals...) {
			refused++
		}
		if refused >= 100 && eng.DegradeLevel() == 2 && eng.ladder.shedTotal > 0 {
			break
		}
	}
	if lvl := eng.DegradeLevel(); lvl != 2 {
		t.Fatalf("DegradeLevel = %d under a pinned mailbox, want 2", lvl)
	}
	if eng.ladder.shedTotal == 0 {
		t.Fatal("rung 2 shed nothing at the window ingress")
	}
	if refused == 0 {
		t.Fatal("TryAppend refused nothing behind a stalled shard")
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
	if byRel != st.Shedded || st.Shedded != eng.ladder.shedTotal {
		t.Fatalf("SheddedByRelation sums to %d, Shedded = %d, ladder shed %d", byRel, st.Shedded, eng.ladder.shedTotal)
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

// TestLadderClimbsOnRefusals stalls one shard behind small batches, so its
// mailbox fills after a few hundred accepted rows and TryAppend refuses almost
// every row after that. Refused rows must still tick the ladder clock: the
// ladder reaches rung 2 on refusals alone, and steps back to 0 once the
// stall is released and a trickle keeps occupancy near 0.
func TestLadderClimbsOnRefusals(t *testing.T) {
	inj := NewFaultInjector().StallAt(0, 1)
	eng, err := fiveWayStar().BuildSharded(Options{Seed: 5}, ShardOptions{
		Shards:    4,
		BatchSize: 4,
		Resilience: ResilienceOptions{
			DegradeHighWater: 0.5,
			FaultInjector:    inj,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	defer inj.Release() // runs before Close, so a failure cannot wedge it

	ops := randomOps(19, 4000, []string{"R0", "R1", "R2", "R3", "R4"},
		[]int{2, 2, 2, 2, 2}, 8)
	refused := 0
	for _, op := range ops {
		if !eng.TryAppend(op.rel, op.vals...) {
			refused++
		}
		if eng.DegradeLevel() == 2 {
			break
		}
	}
	if lvl := eng.DegradeLevel(); lvl != 2 {
		t.Fatalf("DegradeLevel = %d after %d refused rows behind a stalled shard, want 2", lvl, refused)
	}

	inj.Release()
	eng.Flush()
	for i := 0; i < 4*ladderCheckEvery && eng.DegradeLevel() > 0; i++ {
		eng.Append("R0", 1, 1)
		eng.Flush()
	}
	if lvl := eng.DegradeLevel(); lvl != 0 {
		t.Fatalf("DegradeLevel = %d after the stall was released, want 0", lvl)
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
// deadline-bounded ingress paths against a stalled shard: each refuses rows
// before their window advances and sheds nothing, and once the stall is
// released the engine holds exactly the accepted rows.
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
	defer inj.Release() // runs before Close, so a failure cannot wedge it
	serial, err := fiveWayStar().Build(Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}

	ops := randomOps(29, 400, []string{"R0", "R1", "R2", "R3", "R4"},
		[]int{2, 2, 2, 2, 2}, 8)
	// A refusal lasting 20 ms is the stall, not a worker's transient backlog.
	sawFull := false
	accepted, refusals := 0, 0
	for i := 0; i < len(ops) && !sawFull; {
		if !eng.TryAppend(ops[i].rel, ops[i].vals...) {
			refusals++
			sawFull = refusals == 20
			time.Sleep(time.Millisecond)
			continue
		}
		serial.Append(ops[i].rel, ops[i].vals...)
		accepted++
		refusals = 0
		i++
	}
	if !sawFull {
		t.Fatal("TryAppend never reported a full engine behind a stalled shard")
	}
	if accepted == 0 {
		t.Fatal("TryAppend accepted nothing")
	}
	seq := eng.seq

	// A cancelled context cannot wait, and a short deadline expires behind
	// the stall: either way the row is refused before its window advances.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := eng.AppendContext(ctx, "R0", 1, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("AppendContext with a cancelled context = %v, want context.Canceled", err)
	}
	dctx, dcancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer dcancel()
	if err := eng.AppendContext(dctx, "R0", 1, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("AppendContext behind a stall = %v, want context.DeadlineExceeded", err)
	}
	if eng.seq != seq {
		t.Fatalf("refused rows stamped %d updates", eng.seq-seq)
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
	st := eng.Stats()
	if st.Shedded != 0 {
		t.Fatalf("Stats.Shedded = %d: refusing a row is not shedding", st.Shedded)
	}
	if want := serial.Stats(); st.Updates != want.Updates || st.Outputs != want.Outputs {
		t.Fatalf("updates %d, outputs %d; serial engine fed the accepted rows: %d, %d",
			st.Updates, st.Outputs, want.Updates, want.Outputs)
	}
}

// TestAdmissionRefusesExpiredContext: an AppendContext whose context has
// already expired returns the context's error before the row reaches the
// ladder or its window — even at rung 2 with every draw shedding, nothing
// is counted, stamped or held.
func TestAdmissionRefusesExpiredContext(t *testing.T) {
	eng, err := fiveWayStar().BuildSharded(Options{Seed: 3}, ShardOptions{
		Shards:     2,
		Resilience: ResilienceOptions{DegradeHighWater: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for _, op := range randomOps(7, 60, []string{"R0", "R1"}, []int{2, 2}, 8) {
		eng.Append(op.rel, op.vals...)
	}
	before := eng.Stats()
	win := eng.WindowLen("R0")
	eng.ladder.level, eng.ladder.shedProb = 2, 1 // a row that got through would be shed

	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	for _, tc := range []struct {
		ctx  context.Context
		want error
	}{{cctx, context.Canceled}, {dctx, context.DeadlineExceeded}} {
		if err := eng.AppendContext(tc.ctx, "R0", 1, 2); err != tc.ctx.Err() || !errors.Is(err, tc.want) {
			t.Fatalf("AppendContext = %v, want %v", err, tc.want)
		}
	}
	after := eng.Stats()
	if got := eng.WindowLen("R0"); got != win {
		t.Errorf("WindowLen(R0) = %d after refused rows, want %d", got, win)
	}
	if after.Updates != before.Updates || after.Shedded != before.Shedded || eng.ladder.shedTotal != 0 {
		t.Errorf("refused rows moved counters: updates %d → %d, shedded %d → %d, ladder shed %d",
			before.Updates, after.Updates, before.Shedded, after.Shedded, eng.ladder.shedTotal)
	}
}

// TestTryAppendCountsStrayFlushAcks: flush acks that timed-out FlushContext
// calls leave in a stalled shard's mailbox take its slots, so TryAppend must
// refuse a row for that shard rather than block behind them. Counting queued
// updates (three here, against room for eight) misses the acks.
func TestTryAppendCountsStrayFlushAcks(t *testing.T) {
	inj := NewFaultInjector().StallAt(0, 1)
	eng, err := fiveWayStar().BuildSharded(Options{Seed: 4}, ShardOptions{
		Shards:     2,
		BatchSize:  1,
		Resilience: ResilienceOptions{FaultInjector: inj},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	defer inj.Release() // runs before Close, so a failure cannot wedge it
	// Rows of R0 whose key routes to the stalled shard 0; R0's window of 20
	// forces out no expiry delete.
	var toStalled []int64
	for v := int64(0); len(toStalled) < 4; v++ {
		if eng.plan.ShardOf(stream.Update{Rel: 0, Tuple: tuple.Tuple{v, 0}}) == 0 {
			toStalled = append(toStalled, v)
		}
	}
	for _, v := range toStalled[:3] {
		eng.Append("R0", v, 0)
	}
	for i := 0; i < 12; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
		if err := eng.FlushContext(ctx); err == nil {
			t.Fatal("FlushContext returned nil during a stall")
		}
		cancel()
	}
	done := make(chan bool, 1)
	go func() { done <- eng.TryAppend("R0", toStalled[3], 0) }()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("TryAppend accepted a row for a shard whose mailbox is full of flush acks")
		}
	case <-time.After(2 * time.Second):
		inj.Release()
		<-done
		t.Fatal("TryAppend blocked behind a mailbox full of stray flush acks")
	}
}

// TestTryAppendBroadcastNeedsTwoSlots: at BatchSize 1 a full window's
// append to a broadcast relation sends two batches to every shard — the
// expiry delete and the insert — so one free slot on a stalled shard is not
// room, and TryAppend must refuse rather than block on the second send.
func TestTryAppendBroadcastNeedsTwoSlots(t *testing.T) {
	q := NewQuery().
		WindowedRelation("R", 1, "A").
		WindowedRelation("S", 4, "A", "B").
		WindowedRelation("T", 1, "B").
		Join("R.A", "S.A").
		Join("S.B", "T.B")
	inj := NewFaultInjector().StallAt(0, 1)
	eng, err := q.BuildSharded(Options{Seed: 2}, ShardOptions{
		Shards:     2,
		BatchSize:  1,
		Resilience: ResilienceOptions{FaultInjector: inj},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	defer inj.Release() // runs before Close, so a failure cannot wedge it
	bcast, covered := "R", "T"
	if eng.plan.Covered(0) {
		bcast, covered = "T", "R"
	}
	idx := eng.q.relIndex(covered)
	v := int64(0)
	for eng.plan.ShardOf(stream.Update{Rel: idx, Tuple: tuple.Tuple{v}}) != 0 {
		v++
	}
	// Shard 0's worker stalls holding the first batch; three full-window
	// appends queue six batches and the covered row a seventh: one slot left.
	eng.Append(bcast, 0)
	waitStalled(t, inj)
	for i := int64(1); i < 4; i++ {
		eng.Append(bcast, i)
	}
	eng.Append(covered, v)
	done := make(chan bool, 1)
	go func() { done <- eng.TryAppend(bcast, 9) }()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("TryAppend accepted a broadcast row with one free slot on the stalled shard")
		}
	case <-time.After(2 * time.Second):
		inj.Release()
		<-done
		t.Fatal("TryAppend blocked on a broadcast row's second batch")
	}
}

// waitStalled waits until a worker has reached the injector's stall, so the
// batch it stalled on has left its mailbox.
func waitStalled(t *testing.T, inj *FaultInjector) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, _, stalls, _ := inj.Counts(); stalls > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no worker reached the injected stall")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPreWindowAdmissionMatchesSerial stalls one shard and then releases it,
// with the ladder on, feeding rows alternately through TryAppend and through
// AppendContext with short deadlines. Every drop — a refused row or a
// ladder-shed one — happens before the row's window, so after the final
// Flush each shard's windows and the merged result multiset equal those of a
// serial engine fed exactly the accepted rows, and the windows hold accepted
// inserts minus their expiry deletes.
func TestPreWindowAdmissionMatchesSerial(t *testing.T) {
	const window = 20 // fiveWayStar's
	inj := NewFaultInjector().StallAt(0, 40)
	eng, err := fiveWayStar().BuildSharded(Options{Seed: 13}, ShardOptions{
		Shards:    4,
		BatchSize: 64,
		Resilience: ResilienceOptions{
			DegradeHighWater: 0.5,
			FaultInjector:    inj,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	defer inj.Release() // runs before Close, so a failure cannot wedge it
	bag := newResultBag()
	eng.OnResult(bag.hook())
	serial, err := fiveWayStar().Build(Options{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	serialBag := newResultBag()
	serial.OnResult(serialBag.hook())

	rels := []string{"R0", "R1", "R2", "R3", "R4"}
	ops := randomOps(41, 6000, rels, []int{2, 2, 2, 2, 2}, 8)
	accepted := make(map[string]int)
	refused, maxLevel := 0, 0
	released := false
	for i, op := range ops {
		if !released && refused >= 50 && eng.ladder.shedTotal > 0 {
			inj.Release()
			released = true
		}
		shed := eng.ladder.shedTotal
		var ok bool
		if i%2 == 0 {
			ok = eng.TryAppend(op.rel, op.vals...)
		} else {
			ctx, cancel := context.WithTimeout(context.Background(), 200*time.Microsecond)
			ok = eng.AppendContext(ctx, op.rel, op.vals...) == nil
			cancel()
		}
		if lvl := eng.DegradeLevel(); lvl > maxLevel {
			maxLevel = lvl
		}
		switch {
		case !ok:
			refused++
		case eng.ladder.shedTotal == shed:
			serial.Append(op.rel, op.vals...)
			accepted[op.rel]++
		}
	}
	if !released {
		t.Fatalf("refused %d rows behind the stall and ladder shed %d, want 50 and some", refused, eng.ladder.shedTotal)
	}
	eng.Flush()
	if eng.ladder.shedTotal == 0 || maxLevel < 2 {
		t.Fatalf("ladder shed %d rows at peak rung %d: want rung-2 drops too", eng.ladder.shedTotal, maxLevel)
	}
	if st := eng.Stats(); st.Shedded != eng.ladder.shedTotal {
		t.Fatalf("Stats.Shedded = %d, ladder shed %d: refused rows are not shed", st.Shedded, eng.ladder.shedTotal)
	}

	diffBags(t, "results", serialBag.m, bag.m)
	if len(serialBag.m) == 0 {
		t.Fatal("workload delivered no results; test is vacuous")
	}
	held := 0
	for rel, name := range rels {
		want := make([]map[string]int, eng.NumShards())
		for s := range want {
			want[s] = make(map[string]int)
		}
		serial.core.Exec().Store(rel).Scan(func(tp tuple.Tuple) bool {
			want[eng.plan.ShardOf(stream.Update{Rel: rel, Tuple: tp})][fmt.Sprint([]int64(tp))]++
			return true
		})
		for s := range want {
			st := eng.sh.Shard(s).Exec().Store(rel)
			diffBags(t, fmt.Sprintf("window %s on shard %d", name, s), want[s], storeBag(st))
			held += st.Len()
		}
		// Accepted inserts minus the deletes they forced out: no filtered term.
		if n := accepted[name]; n > window {
			held -= window
		} else {
			held -= n
		}
	}
	if held != 0 {
		t.Fatalf("windows hold %d tuples more than accepted inserts minus deletes", held)
	}
}

// TestFlushContextWithoutResilienceOptions: with zero ResilienceOptions the
// engine still runs the one recoverable shard worker, so a result callback
// that blocks cannot wedge the context-bounded calls. TryAppend reports the
// full mailboxes, a timed-out FlushContext returns, a cancelled AppendContext
// refuses its row and says so, and after the callback is released the engine
// drains with nothing shed.
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
	if st := eng.Stats(); st.Shedded != 0 {
		t.Fatalf("Stats.Shedded = %d: a refused row is not shed", st.Shedded)
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
