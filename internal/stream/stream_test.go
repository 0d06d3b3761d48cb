package stream

import (
	"math"
	"testing"
	"testing/quick"

	"acache/internal/tuple"
)

func TestSlidingWindowBasics(t *testing.T) {
	w := NewSlidingWindow(2)
	u := w.Append(tuple.Tuple{1})
	if len(u) != 1 || u[0].Op != Insert {
		t.Fatalf("first append: %v", u)
	}
	w.Append(tuple.Tuple{2})
	u = w.Append(tuple.Tuple{3})
	if len(u) != 2 || u[0].Op != Delete || !u[0].Tuple.Equal(tuple.Tuple{1}) || u[1].Op != Insert {
		t.Fatalf("expiring append: %v", u)
	}
	got := w.Contents()
	if len(got) != 2 || !got[0].Equal(tuple.Tuple{2}) || !got[1].Equal(tuple.Tuple{3}) {
		t.Fatalf("contents: %v", got)
	}
}

func TestSlidingWindowUnbounded(t *testing.T) {
	w := NewSlidingWindow(0)
	for i := 0; i < 100; i++ {
		u := w.Append(tuple.Tuple{int64(i)})
		if len(u) != 1 || u[0].Op != Insert {
			t.Fatal("unbounded window must never expire")
		}
	}
}

// The ring wraps by comparison, not division: against a plain slice queue,
// appends one by one and in batches must emit the same updates carrying the
// same tuples (by storage, not just by value) and leave the same contents,
// while the window fills, at the moment it is full, and over many wraps.
func TestSlidingWindowRingMatchesQueue(t *testing.T) {
	for _, tc := range []struct {
		name          string
		size, appends int
		batch         int // 0: AppendInto; else AppendBatchInto in chunks of batch
	}{
		{"unbounded", 0, 20, 0},
		{"unbounded batch", 0, 20, 6},
		{"size 1", 1, 9, 0},
		{"size 1 batch", 1, 9, 4},
		{"not full", 7, 6, 0},
		{"just full", 7, 7, 0},
		{"first wrap", 7, 8, 0},
		{"many wraps", 7, 40, 0},
		{"batch below size", 7, 40, 3},
		{"batch of size", 7, 42, 7},
		{"batch above size", 7, 40, 16},
	} {
		w := NewSlidingWindow(tc.size)
		var queue []tuple.Tuple
		var got, want []Update
		step := tc.batch
		if step == 0 {
			step = 1
		}
		for i := 0; i < tc.appends; i += step {
			var ts []tuple.Tuple
			for j := i; j < i+step && j < tc.appends; j++ {
				ts = append(ts, tuple.Tuple{int64(j % 5), int64(j)}) // recurring values
			}
			if tc.batch == 0 {
				got = w.AppendInto(ts[0], got)
			} else {
				got = w.AppendBatchInto(ts, got)
			}
			// The queue model, with the batch schedule's hoisted expiries:
			// window-sized chunks, each chunk's deletes before its inserts.
			for len(ts) > 0 {
				m := len(ts)
				if tc.size > 0 && m > tc.size {
					m = tc.size
				}
				for tc.size > 0 && len(queue)+m > tc.size {
					want = append(want, Update{Op: Delete, Tuple: queue[0]})
					queue = queue[1:]
				}
				for _, x := range ts[:m] {
					want = append(want, Update{Op: Insert, Tuple: x})
					if tc.size > 0 {
						queue = append(queue, x)
					}
				}
				ts = ts[m:]
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d updates, want %d", tc.name, len(got), len(want))
		}
		for i := range got {
			if got[i].Op != want[i].Op || &got[i].Tuple[0] != &want[i].Tuple[0] || !got[i].Tuple.Equal(want[i].Tuple) {
				t.Fatalf("%s: update %d is %v, want %v", tc.name, i, got[i], want[i])
			}
		}
		contents := w.Contents()
		if len(contents) != len(queue) || w.n != len(queue) {
			t.Fatalf("%s: holds %d tuples (Len %d), want %d", tc.name, len(contents), w.n, len(queue))
		}
		for i := range contents {
			if &contents[i][0] != &queue[i][0] || !contents[i].Equal(queue[i]) {
				t.Fatalf("%s: contents[%d] is %v, want %v", tc.name, i, contents[i], queue[i])
			}
		}
	}
}

// Property: every inserted tuple is eventually deleted exactly once, in FIFO
// order, and the window never exceeds its size.
func TestSlidingWindowInsertDeleteBalance(t *testing.T) {
	f := func(vals []int64, size8 uint8) bool {
		size := int(size8%8) + 1
		w := NewSlidingWindow(size)
		inserts, deletes := 0, 0
		var expectedDeletes []int64
		for _, v := range vals {
			for _, u := range w.Append(tuple.Tuple{v}) {
				switch u.Op {
				case Insert:
					inserts++
					expectedDeletes = append(expectedDeletes, v)
				case Delete:
					deletes++
					if u.Tuple[0] != expectedDeletes[0] {
						return false // not FIFO
					}
					expectedDeletes = expectedDeletes[1:]
				}
			}
			if w.n > size {
				return false
			}
		}
		return inserts == len(vals) && deletes == len(vals)-w.n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestInterleaverProportions(t *testing.T) {
	iv := NewInterleaver([]float64{1, 2, 7})
	counts := make([]int, 3)
	const total = 10000
	for i := 0; i < total; i++ {
		counts[iv.Next()]++
	}
	for i, want := range []float64{0.1, 0.2, 0.7} {
		got := float64(counts[i]) / total
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("stream %d: share %.3f, want %.3f", i, got, want)
		}
	}
}

func TestInterleaverZeroRateStreamNeverEmits(t *testing.T) {
	iv := NewInterleaver([]float64{1, 0})
	for i := 0; i < 100; i++ {
		if iv.Next() == 1 {
			t.Fatal("zero-rate stream emitted")
		}
	}
}

func TestInterleaverSetRatesMidStream(t *testing.T) {
	iv := NewInterleaver([]float64{1, 1})
	for i := 0; i < 100; i++ {
		iv.Next()
	}
	iv.SetRates([]float64{20, 1})
	counts := make([]int, 2)
	for i := 0; i < 2100; i++ {
		counts[iv.Next()]++
	}
	share := float64(counts[0]) / 2100
	if math.Abs(share-20.0/21) > 0.02 {
		t.Fatalf("post-burst share %.3f, want ≈ %.3f", share, 20.0/21)
	}
}

func TestInterleaverRejectsBadRates(t *testing.T) {
	for _, rates := range [][]float64{{-1, 1}, {0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("rates %v must panic", rates)
				}
			}()
			NewInterleaver(rates)
		}()
	}
}

func TestInterleaverDeterministic(t *testing.T) {
	a := NewInterleaver([]float64{3, 1, 2})
	b := NewInterleaver([]float64{3, 1, 2})
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("interleaver not deterministic")
		}
	}
}

func TestSourceGlobalOrdering(t *testing.T) {
	n := int64(0)
	gen := func() tuple.Tuple { n++; return tuple.Tuple{n} }
	src := NewSource([]RelStream{
		{Gen: gen, WindowSize: 2, Rate: 1},
		{Gen: gen, WindowSize: 2, Rate: 1},
	})
	var lastSeq uint64
	inserts := make(map[int]int)
	deletes := make(map[int]int)
	for i := 0; i < 200; i++ {
		u := src.Next()
		if i > 0 && u.Seq != lastSeq+1 {
			t.Fatalf("sequence gap: %d then %d", lastSeq, u.Seq)
		}
		lastSeq = u.Seq
		if u.Op == Insert {
			inserts[u.Rel]++
		} else {
			deletes[u.Rel]++
		}
	}
	for rel := 0; rel < 2; rel++ {
		if inserts[rel] == 0 || deletes[rel] == 0 {
			t.Fatalf("rel %d: inserts %d deletes %d", rel, inserts[rel], deletes[rel])
		}
		if n := src.windows[rel].n; n > 2 {
			t.Fatalf("window overflow: %d", n)
		}
	}
	if src.TotalAppends() != src.Appends(0)+src.Appends(1) {
		t.Fatal("append accounting inconsistent")
	}
}

func TestUpdateString(t *testing.T) {
	u := Update{Op: Insert, Rel: 0, Tuple: tuple.Tuple{1}, Seq: 5}
	if u.String() != "+∆R1<1>#5" {
		t.Fatalf("String = %q", u.String())
	}
}

func TestPartitionedWindow(t *testing.T) {
	w := NewPartitionedWindow(2, 0)
	// Partition 1 fills independently of partition 2.
	w.AppendInto(tuple.Tuple{1, 10}, nil)
	w.AppendInto(tuple.Tuple{1, 11}, nil)
	w.AppendInto(tuple.Tuple{2, 20}, nil)
	u := w.AppendInto(tuple.Tuple{1, 12}, nil) // expires (1,10) only
	if len(u) != 2 || u[0].Op != Delete || !u[0].Tuple.Equal(tuple.Tuple{1, 10}) {
		t.Fatalf("partition expiry: %v", u)
	}
	if len(w.Contents()) != 3 || len(w.rows) != 2 {
		t.Fatalf("len=%d partitions=%d", len(w.Contents()), len(w.rows))
	}
}

// A window keeps one width for all its tuples and a reference to each one's
// first value: a tuple of another width, or with no values, is refused.
func TestWindowWidthMisusePanics(t *testing.T) {
	for name, misuse := range map[string]func(){
		"sliding, wider":  func() { w := NewSlidingWindow(3); w.Append(tuple.Tuple{1}); w.Append(tuple.Tuple{1, 2}) },
		"sliding, empty":  func() { NewSlidingWindow(3).Append(tuple.Tuple{}) },
		"batch, narrower": func() { NewSlidingWindow(3).AppendBatchInto([]tuple.Tuple{{1, 2}, {1}}, nil) },
		"load, narrower":  func() { w := NewSlidingWindow(3); w.Append(tuple.Tuple{1, 2}); w.Load([]tuple.Tuple{{1}}) },
		"time, wider":     func() { w := NewTimeWindow(5); w.Append(tuple.Tuple{1}, 1); w.Append(tuple.Tuple{1, 2}, 2) },
		"time, nil":       func() { NewTimeWindow(5).Append(nil, 1) },
		"partition, wider": func() {
			w := NewPartitionedWindow(2, 0)
			w.AppendInto(tuple.Tuple{1}, nil)
			w.AppendInto(tuple.Tuple{1, 2}, nil)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: accepted", name)
				}
			}()
			misuse()
		}()
	}
}

func TestPartitionedWindowBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive size must panic")
		}
	}()
	NewPartitionedWindow(0, 0)
}
