package stream

import (
	"fmt"
	"math/rand"
	"testing"

	"acache/internal/tuple"
)

// applyToMultiset replays updates into a naive multiset and fails on any
// delete of an absent tuple — every prefix of a window's update stream must
// be a valid history.
func applyToMultiset(t *testing.T, label string, ups []Update) map[string]int {
	t.Helper()
	ms := make(map[string]int)
	for i, u := range ups {
		k := fmt.Sprint(u.Tuple)
		switch u.Op {
		case Insert:
			ms[k]++
		case Delete:
			if ms[k] == 0 {
				t.Fatalf("%s: update %d deletes absent tuple %s", label, i, k)
			}
			ms[k]--
		}
	}
	return ms
}

func multisetEqual(a, b map[string]int) bool {
	for k, n := range a {
		if b[k] != n {
			return false
		}
	}
	for k, n := range b {
		if a[k] != n {
			return false
		}
	}
	return true
}

func TestSlidingWindowAppendBatchMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, size := range []int{0, 1, 4, 16} {
		for _, batch := range []int{1, 3, 16, 40} {
			serial, batched := NewSlidingWindow(size), NewSlidingWindow(size)
			var serialUps, batchUps []Update
			for round := 0; round < 10; round++ {
				ts := make([]tuple.Tuple, batch)
				for i := range ts {
					ts[i] = tuple.Tuple{tuple.Value(rng.Int63n(50))}
				}
				for _, x := range ts {
					serialUps = serial.AppendInto(x, serialUps)
				}
				batchUps = batched.AppendBatchInto(ts, batchUps)
			}
			label := fmt.Sprintf("size=%d batch=%d", size, batch)
			if got, want := fmt.Sprint(batched.Contents()), fmt.Sprint(serial.Contents()); got != want {
				t.Fatalf("%s: contents %s, want %s", label, got, want)
			}
			sm := applyToMultiset(t, label+" serial", serialUps)
			bm := applyToMultiset(t, label+" batch", batchUps)
			if !multisetEqual(sm, bm) {
				t.Fatalf("%s: update multisets diverge", label)
			}
		}
	}
}

func TestSlidingWindowAppendBatchGroupsOps(t *testing.T) {
	// A full window + a batch no larger than the window must yield exactly
	// one delete run followed by one insert run.
	w := NewSlidingWindow(8)
	for i := 0; i < 8; i++ {
		w.Append(tuple.Tuple{tuple.Value(i)})
	}
	ts := make([]tuple.Tuple, 5)
	for i := range ts {
		ts[i] = tuple.Tuple{tuple.Value(100 + i)}
	}
	ups := w.AppendBatchInto(ts, nil)
	if len(ups) != 10 {
		t.Fatalf("got %d updates, want 10", len(ups))
	}
	for i, u := range ups {
		want := Delete
		if i >= 5 {
			want = Insert
		}
		if u.Op != want {
			t.Fatalf("update %d: op %v, want %v (schedule not grouped)", i, u.Op, want)
		}
	}
	if ups[0].Tuple[0] != 0 || ups[4].Tuple[0] != 4 {
		t.Fatalf("deletes not oldest-first: %v", ups[:5])
	}
}

func TestPartitionedWindowAppendBatchMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, batch := range []int{1, 5, 24} {
		serial := NewPartitionedWindow(3, 0)
		batched := NewPartitionedWindow(3, 0)
		var serialUps, batchUps []Update
		for round := 0; round < 12; round++ {
			ts := make([]tuple.Tuple, batch)
			for i := range ts {
				// Few partitions so single batches overflow a partition's
				// window (the degenerate same-batch expiry case).
				ts[i] = tuple.Tuple{tuple.Value(rng.Int63n(3)), tuple.Value(rng.Int63n(100))}
			}
			for _, x := range ts {
				serialUps = serial.AppendInto(x, serialUps)
			}
			batchUps = batched.AppendBatchInto(ts, batchUps)
		}
		label := fmt.Sprintf("batch=%d", batch)
		if len(serial.Contents()) != len(batched.Contents()) || len(serial.rows) != len(batched.rows) {
			t.Fatalf("%s: len/partitions diverge: %d/%d vs %d/%d",
				label, len(serial.Contents()), len(serial.rows), len(batched.Contents()), len(batched.rows))
		}
		sm := applyToMultiset(t, label+" serial", serialUps)
		bm := applyToMultiset(t, label+" batch", batchUps)
		if !multisetEqual(sm, bm) {
			t.Fatalf("%s: update multisets diverge", label)
		}
		// Final multiset must equal window contents per partition.
		for key, win := range serial.rows {
			bwin := batched.rows[key]
			if bwin == nil || fmt.Sprint(win.Contents()) != fmt.Sprint(bwin.Contents()) {
				t.Fatalf("%s: partition %v contents diverge", label, key)
			}
		}
	}
}
