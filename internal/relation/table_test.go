package relation

import (
	"math/rand"
	"testing"

	"acache/internal/cost"
	"acache/internal/tuple"
)

// TestOATableBackwardShift drives an 8-slot table against a map model with
// hashes chosen by home slot — most of them 7 and 6, so clusters wrap around
// the end of the array — deleting cluster heads, middles and tails at random.
// After every step every model key must be found with its id, absent keys
// must miss, live must match, and every slot is empty or occupied: a delete
// leaves nothing behind that a later probe has to step over.
func TestOATableBackwardShift(t *testing.T) {
	const maxLive = 5 // occupy reports full at 6 of 8
	homes := []uint64{7, 7, 7, 6, 6, 0, 3}
	rng := rand.New(rand.NewSource(3))
	tab := newOATable()
	model := map[uint64]int32{} // hash -> id; one key per hash
	var keys []uint64
	nextKey := uint64(0)
	eqFor := func(h uint64) func(int32) bool {
		return func(id int32) bool { return model[h] == id }
	}
	check := func(step int) {
		t.Helper()
		if tab.live != len(model) {
			t.Fatalf("step %d: live = %d, model holds %d", step, tab.live, len(model))
		}
		occupied := 0
		for i, s := range tab.slots {
			switch {
			case s.head == emptySlot:
			case s.head >= 0:
				occupied++
				if id, ok := model[s.hash]; !ok || id != s.head {
					t.Fatalf("step %d: slot %d holds hash %#x id %d, model has %d (present %v)", step, i, s.hash, s.head, id, ok)
				}
			default:
				t.Fatalf("step %d: slot %d is neither empty nor occupied: head %d", step, i, s.head)
			}
		}
		if occupied != len(model) {
			t.Fatalf("step %d: %d occupied slots, model holds %d", step, occupied, len(model))
		}
		for h, id := range model {
			slot := tab.find(h, eqFor(h))
			if slot < 0 || tab.slots[slot].head != id {
				t.Fatalf("step %d: key %#x (home %d) not found after a shift; slots %+v", step, h, h&tab.mask, tab.slots)
			}
		}
		for _, home := range homes {
			absent := home | 1<<40
			if slot := tab.find(absent, func(int32) bool { return true }); slot >= 0 {
				t.Fatalf("step %d: absent key %#x found in slot %d", step, absent, slot)
			}
		}
	}
	lastSlotDeletes := 0
	for step := 0; step < 20_000; step++ {
		if len(keys) < maxLive && (len(keys) == 0 || rng.Intn(2) == 0) {
			nextKey++
			h := homes[rng.Intn(len(homes))] | nextKey<<3
			slot, claimed := tab.findOrClaim(h, eqFor(h))
			if !claimed {
				t.Fatalf("step %d: new key %#x found at slot %d", step, h, slot)
			}
			id := int32(nextKey & 0x7fffffff)
			if full := tab.occupy(slot, h, id, id); full {
				t.Fatalf("step %d: table full at %d live", step, tab.live)
			}
			model[h] = id
			keys = append(keys, h)
		} else {
			i := rng.Intn(len(keys))
			h := keys[i]
			keys[i] = keys[len(keys)-1]
			keys = keys[:len(keys)-1]
			slot := tab.find(h, eqFor(h))
			if slot < 0 {
				t.Fatalf("step %d: model key %#x not found", step, h)
			}
			if slot == len(tab.slots)-1 {
				lastSlotDeletes++
			}
			delete(model, h)
			tab.clearSlot(slot)
		}
		check(step)
	}
	if len(tab.slots) != minTableSize {
		t.Fatalf("table grew to %d slots", len(tab.slots))
	}
	if lastSlotDeletes == 0 {
		t.Fatal("no delete hit the last slot: wrap-around was never exercised")
	}
}

// TestSteadyWindowNeverRehashes slides a full 4 096-tuple window ten times
// its length over a one-index store whose keys are mostly distinct, so nearly
// every expiry clears a table slot and nearly every insert claims one. The
// table must stay the size the fill left it, and an expire+insert pair must
// not allocate.
func TestSteadyWindowNeverRehashes(t *testing.T) {
	const window = 4096
	s := NewStore(0, tuple.RelationSchema(0, "A"), &cost.Meter{})
	idx := s.CreateIndex("A")
	rng := rand.New(rand.NewSource(9))
	vals := make([]tuple.Value, window)
	ring := make([]tuple.Tuple, window)
	for i := range ring {
		ring[i] = vals[i : i+1 : i+1]
		ring[i][0] = rng.Int63n(2 * window)
		s.Insert(ring[i])
	}
	slots, at := len(idx.table.slots), 0
	step := func() {
		u := ring[at]
		if !s.Delete(u) {
			t.Fatalf("expiry of %v not found", u)
		}
		u[0] = rng.Int63n(2 * window) // the store has let go of it
		s.Insert(u)
		if at++; at == window {
			at = 0
		}
	}
	for i := 0; i < 10*window; i++ {
		step()
	}
	if got := len(idx.table.slots); got != slots {
		t.Fatalf("table went from %d to %d slots under a steady window", slots, got)
	}
	if s.Len() != window || len(s.tuples) != window {
		t.Fatalf("store holds %d tuples in a slab of %d, want %d in %d", s.Len(), len(s.tuples), window, window)
	}
	if got := testing.AllocsPerRun(1_000, step); got != 0 {
		t.Fatalf("%.0f allocs per expire+insert, want 0", got)
	}
}
