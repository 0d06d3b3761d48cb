package relation

import (
	"testing"

	"acache/internal/cost"
	"acache/internal/tuple"
)

func sharedSchema() *tuple.Schema { return tuple.RelationSchema(0, "A", "B") }

// TestSharedReplayChargeIdentity drives two sharers over one store and checks
// that each sharer's meter charges exactly what an isolated store would have
// charged it for the same operation sequence — the physical apply and the
// replay paths must be tariff-identical, whichever way the delete found its
// victim (scan, head of a chain, behind a duplicate), including the absent
// tuple (a miss charges nothing) and per-index surcharges.
func TestSharedReplayChargeIdentity(t *testing.T) {
	for _, indexed := range [][]string{nil, {"A"}, {"A", "B"}} {
		mShared := &cost.Meter{}
		shared := NewStore(0, sharedSchema(), mShared)
		for _, name := range indexed {
			shared.CreateIndex(name)
		}
		a := shared.Share()
		b := shared.Share()
		mA, mB := &cost.Meter{}, &cost.Meter{}

		ops := []struct {
			del bool
			t   tuple.Tuple
		}{
			{false, tuple.Tuple{1, 10}},
			{false, tuple.Tuple{2, 20}},
			{false, tuple.Tuple{1, 11}},
			{false, tuple.Tuple{1, 10}}, // a duplicate
			{true, tuple.Tuple{1, 11}},  // behind the head of A's chain
			{true, tuple.Tuple{1, 10}},
			{true, tuple.Tuple{1, 10}},
			{true, tuple.Tuple{1, 10}}, // the duplicates are gone: no charges
			{true, tuple.Tuple{7, 70}}, // never present: no charges
			{false, tuple.Tuple{3, 30}},
		}
		for _, op := range ops {
			kind := SharedInsert
			if op.del {
				kind = SharedDelete
			}
			// Lockstep: A first (physical apply), then B (replay).
			shared.SetMeter(mA)
			chargedA := mA.Total()
			shared.ApplyShared(a, kind, op.t)
			chargedA = mA.Total() - chargedA

			shared.SetMeter(mB)
			chargedB := mB.Total()
			shared.ApplyShared(b, kind, op.t)
			chargedB = mB.Total() - chargedB

			if chargedA != chargedB {
				t.Fatalf("indexed=%v op=%+v: physical apply charged %d, replay charged %d", indexed, op, chargedA, chargedB)
			}
		}

		// Aggregate: each sharer's total must equal an isolated twin's.
		mA3, mB3 := &cost.Meter{}, &cost.Meter{}
		twinA := NewStore(0, sharedSchema(), mA3)
		twinB := NewStore(0, sharedSchema(), mB3)
		for _, name := range indexed {
			twinA.CreateIndex(name)
			twinB.CreateIndex(name)
		}
		for _, op := range ops {
			if op.del {
				twinA.Delete(op.t)
				twinB.Delete(op.t)
			} else {
				twinA.Insert(op.t)
				twinB.Insert(op.t)
			}
		}
		if mA.Total() != mA3.Total() {
			t.Fatalf("indexed=%v: sharer A charged %d, isolated twin charged %d", indexed, mA.Total(), mA3.Total())
		}
		if mB.Total() != mB3.Total() {
			t.Fatalf("indexed=%v: sharer B charged %d, isolated twin charged %d", indexed, mB.Total(), mB3.Total())
		}
		// Contents match the twin too.
		if shared.Len() != twinA.Len() {
			t.Fatalf("indexed=%v: shared store holds %d tuples, twin holds %d", indexed, shared.Len(), twinA.Len())
		}
	}
}

// TestSharedOutOfOrderPanics checks the defensive branch of ApplyShared: a
// cursor ahead of the store's sequence (impossible through the public API,
// reachable only through state corruption) panics instead of silently
// desynchronizing replay. The cross-sharer lockstep contract itself is
// enforced one level up, in join.Exec's shared-pass prologue, and is covered
// by the server-level sharing tests.
func TestSharedOutOfOrderPanics(t *testing.T) {
	m := &cost.Meter{}
	st := NewStore(0, sharedSchema(), m)
	a := st.Share()
	st.ApplyShared(a, SharedInsert, tuple.Tuple{1, 10})
	st.shared.cursors[a] = st.shared.lastSeq + 5
	defer func() {
		if recover() == nil {
			t.Fatal("apply with a cursor ahead of the store did not panic")
		}
	}()
	st.ApplyShared(a, SharedInsert, tuple.Tuple{2, 20})
}

// TestSharedRefcountAndTrim checks Share/Unshare bookkeeping: a sharer one
// behind replays the last outcome, a sharer two behind panics (the store
// keeps only the last outcome), and Unshare of a laggard lets the others go
// on alone.
func TestSharedRefcountAndTrim(t *testing.T) {
	m := &cost.Meter{}
	st := NewStore(0, sharedSchema(), m)
	a := st.Share()
	b := st.Share()
	if len(st.shared.cursors) != 2 {
		t.Fatalf("sharers = %d, want 2", len(st.shared.cursors))
	}

	st.ApplyShared(a, SharedInsert, tuple.Tuple{1, 10})
	if lag := st.SharedLag(b); lag != 1 {
		t.Fatalf("lag of b = %d, want 1", lag)
	}
	st.ApplyShared(b, SharedInsert, tuple.Tuple{1, 10})
	if lag := st.SharedLag(b); lag != 0 {
		t.Fatalf("lag of b after replay = %d, want 0", lag)
	}

	// b stops consuming while a runs two ahead: only the last outcome is
	// kept, so b's replay of the first one panics, as presenting an update
	// ahead of the store does...
	st.ApplyShared(a, SharedInsert, tuple.Tuple{2, 20})
	st.ApplyShared(a, SharedDelete, tuple.Tuple{1, 10})
	if lag := st.SharedLag(b); lag != 2 {
		t.Fatalf("lag of b = %d, want 2", lag)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("a sharer two behind the store replayed instead of panicking")
			}
		}()
		st.ApplyShared(b, SharedInsert, tuple.Tuple{2, 20})
	}()
	// ...until b detaches, and a keeps working alone.
	st.Unshare(b)
	if len(st.shared.cursors) != 1 {
		t.Fatalf("sharers after Unshare = %d, want 1", len(st.shared.cursors))
	}
	st.ApplyShared(a, SharedInsert, tuple.Tuple{3, 30})
	if st.Len() != 2 {
		t.Fatalf("store holds %d tuples, want 2", st.Len())
	}
	// Unshare is idempotent.
	st.Unshare(b)
	st.Unshare(a)
	if len(st.shared.cursors) != 0 {
		t.Fatalf("sharers after full teardown = %d, want 0", len(st.shared.cursors))
	}
}
