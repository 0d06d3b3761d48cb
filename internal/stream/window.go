package stream

import (
	"fmt"
	"sort"

	"acache/internal/tuple"
)

// SlidingWindow converts an append-only stream into an update stream over a
// count-based sliding window of the most recent Size tuples, mirroring the
// STREAM prototype's window operators: each append yields an Insert, and once
// the window is full, a Delete of the expiring (oldest) tuple precedes it.
//
// An unbounded window (Size ≤ 0) never expires tuples, which models
// conventional materialized-view maintenance where deletes arrive explicitly.
//
// The ring holds 8-byte references, not slice headers: one stream has one
// arity, learned from the first tuple appended.
type SlidingWindow struct {
	size  int
	width int         // values per tuple; 0 until the first append
	buf   []tuple.Ref // ring buffer of current window contents
	head  int         // index of oldest tuple
	n     int
}

// NewSlidingWindow creates a count-based window of the given size.
// size ≤ 0 means unbounded.
func NewSlidingWindow(size int) *SlidingWindow {
	w := &SlidingWindow{size: size}
	if size > 0 {
		w.buf = make([]tuple.Ref, size)
	}
	return w
}

// Size returns the configured window size (≤ 0 for unbounded).
func (w *SlidingWindow) Size() int { return w.size }

// Append pushes a new stream tuple and returns the resulting window updates:
// a Delete of the expired tuple first, if the window was full, then the
// Insert of t. Rel and Seq fields are left zero for the caller to fill.
func (w *SlidingWindow) Append(t tuple.Tuple) []Update {
	return w.AppendInto(t, nil)
}

// AppendInto is Append accumulating into a caller-owned buffer (appended to,
// typically passed as buf[:0]) so steady-state appends allocate nothing.
func (w *SlidingWindow) AppendInto(t tuple.Tuple, out []Update) []Update {
	if w.size <= 0 {
		return append(out, Update{Op: Insert, Tuple: t})
	}
	r := refOf(&w.width, t)
	if w.n == w.size {
		// Full: the new tuple takes the slot the oldest one leaves.
		old := w.buf[w.head].Tuple(w.width)
		w.buf[w.head] = r
		w.head = w.next(w.head)
		return append(out, Update{Op: Delete, Tuple: old}, Update{Op: Insert, Tuple: t})
	}
	w.buf[w.tail()] = r
	w.n++
	return append(out, Update{Op: Insert, Tuple: t})
}

// refOf returns the reference a window keeps for t, fixing the window's width
// at its first tuple. A tuple of another width would be read back at the
// wrong length, and an empty one has nothing to refer to, so both are refused.
func refOf(width *int, t tuple.Tuple) tuple.Ref {
	if *width == 0 {
		*width = len(t)
	}
	if len(t) != *width || len(t) == 0 {
		panic(fmt.Sprintf("stream: window of %d-value tuples given one of %d", *width, len(t)))
	}
	return tuple.RefOf(t)
}

// pop removes and returns the oldest tuple.
func (w *SlidingWindow) pop() tuple.Tuple {
	old := w.buf[w.head].Tuple(w.width)
	w.buf[w.head] = tuple.Ref{}
	w.head = w.next(w.head)
	w.n--
	return old
}

// next is the ring slot after i; tail is the slot past the newest tuple.
// Both wrap by comparison: size is a run-time value, so % is a division.
func (w *SlidingWindow) next(i int) int {
	if i++; i == w.size {
		return 0
	}
	return i
}

func (w *SlidingWindow) tail() int {
	i := w.head + w.n
	if i >= w.size {
		i -= w.size
	}
	return i
}

// AppendBatchInto pushes a batch of stream tuples and returns the resulting
// window updates with the expiries hoisted: all deletes forced out by the
// batch first (oldest first), then all inserts in batch order. The final
// window contents and the update multiset are exactly those of appending the
// tuples one by one; only the delete/insert interleaving differs, and the
// grouped schedule is what the engine's vectorized batch path wants — two
// long same-operation runs instead of 2·len(ts) runs of one.
//
// Batches larger than the window are processed in window-sized chunks, so a
// tuple whose insert and expiry both fall inside one call is still inserted
// before it is deleted.
func (w *SlidingWindow) AppendBatchInto(ts []tuple.Tuple, out []Update) []Update {
	if w.size <= 0 {
		for _, t := range ts {
			out = append(out, Update{Op: Insert, Tuple: t})
		}
		return out
	}
	for len(ts) > 0 {
		m := len(ts)
		if m > w.size {
			m = w.size
		}
		chunk := ts[:m]
		ts = ts[m:]
		for expire := w.n + m - w.size; expire > 0; expire-- {
			out = append(out, Update{Op: Delete, Tuple: w.pop()})
		}
		at := w.tail()
		for _, t := range chunk {
			w.buf[at] = refOf(&w.width, t)
			at = w.next(at)
			out = append(out, Update{Op: Insert, Tuple: t})
		}
		w.n += m
	}
	return out
}

// Contents returns the window's current tuples, oldest first. It is intended
// for tests, invariant checks, and checkpointing.
func (w *SlidingWindow) Contents() []tuple.Tuple {
	out := make([]tuple.Tuple, 0, w.n)
	for i, at := 0, w.head; i < w.n; i, at = i+1, w.next(at) {
		out = append(out, w.buf[at].Tuple(w.width))
	}
	return out
}

// Load replaces the window's contents with ts, oldest first, without
// emitting any updates — the warm-restart bulk load. Unbounded windows hold
// no operator state, so Load is a no-op for them. Panics if ts exceeds a
// bounded window's size (a checkpoint can never legally hold more).
func (w *SlidingWindow) Load(ts []tuple.Tuple) {
	if w.size <= 0 {
		return
	}
	if len(ts) > w.size {
		panic("stream: Load exceeds window size")
	}
	clear(w.buf)
	w.head = 0
	w.n = len(ts)
	for i, t := range ts {
		w.buf[i] = refOf(&w.width, t)
	}
}

// PartitionedWindow is CQL's `[PARTITION BY attr ROWS n]`: the stream is
// partitioned by one column's value and each partition keeps its own
// count-based window of the n most recent tuples — e.g. "the last 10 quotes
// per instrument". Appends expire the oldest tuple of the same partition
// only.
type PartitionedWindow struct {
	size int
	col  int // partitioning column
	rows map[tuple.Value]*SlidingWindow
	pend map[*SlidingWindow]int // AppendBatchInto's per-call scratch
}

// NewPartitionedWindow creates a per-partition window of the given size
// over the partitioning column col. size must be positive.
func NewPartitionedWindow(size, col int) *PartitionedWindow {
	if size <= 0 {
		panic("stream: partitioned window size must be positive")
	}
	return &PartitionedWindow{size: size, col: col, rows: make(map[tuple.Value]*SlidingWindow)}
}

// AppendInto pushes a stream tuple, appending the partition's window updates
// to out: the expiry delete of its partition's oldest tuple (when full), then
// the insert.
func (w *PartitionedWindow) AppendInto(t tuple.Tuple, out []Update) []Update {
	key := t[w.col]
	win, ok := w.rows[key]
	if !ok {
		win = NewSlidingWindow(w.size)
		w.rows[key] = win
	}
	return win.AppendInto(t, out)
}

// AppendBatchInto pushes a batch of stream tuples and returns the window
// updates with expiries hoisted across partitions: first every delete the
// batch forces out (each partition expiring its own oldest, in batch order),
// then every insert in batch order. Final per-partition contents and the
// update multiset match one-by-one appends exactly; see
// SlidingWindow.AppendBatchInto for why the grouped schedule.
//
// Degenerate case: when one partition receives more tuples than its window
// holds in a single batch, the overflow expiries of tuples inserted by this
// same batch are emitted in the insert pass (an insert run briefly broken by
// deletes) — correctness over run purity.
func (w *PartitionedWindow) AppendBatchInto(ts []tuple.Tuple, out []Update) []Update {
	if w.pend == nil {
		w.pend = make(map[*SlidingWindow]int)
	}
	for _, t := range ts {
		key := t[w.col]
		win, ok := w.rows[key]
		if !ok {
			win = NewSlidingWindow(w.size)
			w.rows[key] = win
		}
		if win.n > 0 && win.n+w.pend[win] >= win.size {
			out = append(out, Update{Op: Delete, Tuple: win.pop()})
		}
		w.pend[win]++
	}
	clear(w.pend)
	for _, t := range ts {
		// AppendInto inserts without expiring here — the first pass already
		// made room — except in the same-batch-overflow case noted above.
		out = w.rows[t[w.col]].AppendInto(t, out)
	}
	return out
}

// Contents returns every partition's current tuples for checkpointing:
// partitions in ascending key order, each partition's tuples oldest first.
// Only the per-partition relative order matters for future expiries, so this
// deterministic flattening round-trips exactly through Load.
func (w *PartitionedWindow) Contents() []tuple.Tuple {
	keys := make([]tuple.Value, 0, len(w.rows))
	for k := range w.rows {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var out []tuple.Tuple
	for _, k := range keys {
		out = append(out, w.rows[k].Contents()...)
	}
	return out
}

// Load replaces the window's contents with ts without emitting updates,
// routing each tuple to its partition in slice order (so per-partition
// arrival order is preserved). Panics if a partition would overflow.
func (w *PartitionedWindow) Load(ts []tuple.Tuple) {
	for _, t := range ts {
		key := t[w.col]
		win, ok := w.rows[key]
		if !ok {
			win = NewSlidingWindow(w.size)
			w.rows[key] = win
		}
		if win.n == win.size {
			panic("stream: Load exceeds partition window size")
		}
		win.buf[win.tail()] = refOf(&win.width, t)
		win.n++
	}
}
