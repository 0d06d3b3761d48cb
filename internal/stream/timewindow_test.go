package stream

import (
	"math/rand"
	"testing"

	"acache/internal/tuple"
)

func TestTimeWindowBasics(t *testing.T) {
	w := NewTimeWindow(10)
	u := w.Append(tuple.Tuple{1}, 100)
	if len(u) != 1 || u[0].Op != Insert {
		t.Fatalf("first append: %v", u)
	}
	w.Append(tuple.Tuple{2}, 105)
	// At t=111, the t=100 tuple (older than 111−10=101) expires; 105 stays.
	u = w.Append(tuple.Tuple{3}, 111)
	if len(u) != 2 || u[0].Op != Delete || !u[0].Tuple.Equal(tuple.Tuple{1}) {
		t.Fatalf("expiring append: %v", u)
	}
	if w.n != 2 {
		t.Fatalf("len = %d", w.n)
	}
}

func TestTimeWindowBoundaryInclusive(t *testing.T) {
	// A tuple at exactly ts − span expires (≤ cutoff).
	w := NewTimeWindow(10)
	w.Append(tuple.Tuple{1}, 100)
	u := w.Append(tuple.Tuple{2}, 110)
	if len(u) != 2 || u[0].Op != Delete {
		t.Fatalf("boundary tuple should expire: %v", u)
	}
}

func TestTimeWindowAdvanceTo(t *testing.T) {
	w := NewTimeWindow(5)
	w.Append(tuple.Tuple{1}, 10)
	w.Append(tuple.Tuple{2}, 12)
	u := w.AdvanceTo(16)
	if len(u) != 1 || !u[0].Tuple.Equal(tuple.Tuple{1}) {
		t.Fatalf("advance: %v", u)
	}
	if u2 := w.AdvanceTo(16); len(u2) != 0 {
		t.Fatalf("idempotent advance emitted %v", u2)
	}
	if u3 := w.AdvanceTo(100); len(u3) != 1 {
		t.Fatalf("final advance: %v", u3)
	}
	if w.n != 0 {
		t.Fatalf("len = %d", w.n)
	}
}

func TestTimeWindowRegressionPanics(t *testing.T) {
	w := NewTimeWindow(5)
	w.Append(tuple.Tuple{1}, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("timestamp regression must panic")
		}
	}()
	w.Append(tuple.Tuple{2}, 9)
}

func TestTimeWindowBadSpanPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive span must panic")
		}
	}()
	NewTimeWindow(0)
}

func TestTimeWindowGrowthAndOrder(t *testing.T) {
	// Force ring-buffer growth across wraparound and check FIFO expiry.
	w := NewTimeWindow(1000)
	for i := int64(0); i < 100; i++ {
		w.Append(tuple.Tuple{i}, i)
	}
	if w.n != 100 {
		t.Fatalf("len = %d", w.n)
	}
	got, _ := w.ContentsTimed()
	for i := range got {
		if got[i][0] != int64(i) {
			t.Fatalf("contents out of order at %d: %v", i, got[i])
		}
	}
	outs := w.AdvanceTo(1050)
	for i, u := range outs {
		if u.Tuple[0] != int64(i) {
			t.Fatalf("expiry out of order at %d: %v", i, u)
		}
	}
	// Cutoff is inclusive: ts ≤ 1050 − 1000 = 50 covers tuples 0..50.
	if len(outs) != 51 {
		t.Fatalf("expired %d, want 51", len(outs))
	}
}

// Property: tuples expire exactly once, FIFO, and residency matches the
// span predicate at all times.
func TestTimeWindowProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const span = 20
	w := NewTimeWindow(span)
	ts := int64(0)
	type rec struct {
		v  int64
		ts int64
	}
	var live []rec
	for i := 0; i < 2000; i++ {
		ts += rng.Int63n(4)
		v := int64(i)
		for _, u := range w.Append(tuple.Tuple{v}, ts) {
			if u.Op == Delete {
				if len(live) == 0 || live[0].v != u.Tuple[0] {
					t.Fatalf("step %d: non-FIFO expiry %v (head %v)", i, u.Tuple, live)
				}
				if live[0].ts > ts-span {
					t.Fatalf("step %d: premature expiry of ts=%d at t=%d", i, live[0].ts, ts)
				}
				live = live[1:]
			}
		}
		live = append(live, rec{v: v, ts: ts})
		for _, r := range live {
			if r.ts <= ts-span {
				t.Fatalf("step %d: stale tuple ts=%d at t=%d", i, r.ts, ts)
			}
		}
		if w.n != len(live) {
			t.Fatalf("step %d: len %d vs %d", i, w.n, len(live))
		}
	}
}
