package stream

import "acache/internal/tuple"

// TimeWindow converts an append-only stream with application timestamps into
// an update stream over a time-based sliding window of the most recent Span
// time units — CQL's `[RANGE span]` windows, the second window flavor of the
// STREAM prototype (count-based windows are SlidingWindow).
//
// Timestamps must be non-decreasing (the global ordering assumption of
// Section 3.1). An append at time t first expires every tuple with
// timestamp ≤ t − Span, emitting their deletes oldest-first, then emits the
// insert.
type TimeWindow struct {
	span  int64
	width int // values per tuple; 0 until the first append
	buf   []timedTuple
	head  int
	n     int
	last  int64
}

type timedTuple struct {
	t  tuple.Ref
	ts int64
}

// NewTimeWindow creates a time-based window spanning the given number of
// time units. span must be positive.
func NewTimeWindow(span int64) *TimeWindow {
	if span <= 0 {
		panic("stream: time window span must be positive")
	}
	return &TimeWindow{span: span, buf: make([]timedTuple, 8)}
}

// Append pushes a stream tuple with timestamp ts and returns the resulting
// window updates: deletes of every expired tuple (oldest first), then the
// insert of t. It panics on a timestamp regression, which would violate the
// global ordering the engine depends on.
func (w *TimeWindow) Append(t tuple.Tuple, ts int64) []Update {
	if ts < w.last {
		panic("stream: time window timestamps must be non-decreasing")
	}
	w.last = ts
	out := w.AdvanceTo(ts)
	if w.n == len(w.buf) {
		w.grow()
	}
	w.buf[(w.head+w.n)%len(w.buf)] = timedTuple{t: refOf(&w.width, t), ts: ts}
	w.n++
	return append(out, Update{Op: Insert, Tuple: t})
}

// AdvanceTo expires every tuple with timestamp ≤ ts − Span without inserting
// anything — a pure clock advance, used when time passes with no arrivals
// on this stream.
func (w *TimeWindow) AdvanceTo(ts int64) []Update {
	if ts > w.last {
		w.last = ts
	}
	cutoff := ts - w.span
	var out []Update
	for w.n > 0 && w.buf[w.head].ts <= cutoff {
		out = append(out, Update{Op: Delete, Tuple: w.buf[w.head].t.Tuple(w.width)})
		w.buf[w.head] = timedTuple{}
		w.head = (w.head + 1) % len(w.buf)
		w.n--
	}
	return out
}

// Clock returns the last timestamp observed (appends and advances).
func (w *TimeWindow) Clock() int64 { return w.last }

// ContentsTimed returns the window's current tuples and their timestamps,
// oldest first — the checkpointable operator state (future expiries depend
// on each tuple's own timestamp).
func (w *TimeWindow) ContentsTimed() ([]tuple.Tuple, []int64) {
	ts := make([]tuple.Tuple, 0, w.n)
	stamps := make([]int64, 0, w.n)
	for i := 0; i < w.n; i++ {
		tt := w.buf[(w.head+i)%len(w.buf)]
		ts = append(ts, tt.t.Tuple(w.width))
		stamps = append(stamps, tt.ts)
	}
	return ts, stamps
}

// Load replaces the window's contents (oldest first, with per-tuple
// timestamps) and sets the clock, without emitting updates — the
// warm-restart bulk load. Panics on a timestamp regression within the load.
func (w *TimeWindow) Load(ts []tuple.Tuple, stamps []int64, clock int64) {
	if len(ts) != len(stamps) {
		panic("stream: Load tuple/timestamp length mismatch")
	}
	n := len(w.buf)
	for n < len(ts) {
		n *= 2
	}
	w.buf = make([]timedTuple, n)
	w.head = 0
	w.n = len(ts)
	prev := int64(-1 << 62)
	for i, t := range ts {
		if stamps[i] < prev {
			panic("stream: Load timestamps must be non-decreasing")
		}
		prev = stamps[i]
		w.buf[i] = timedTuple{t: refOf(&w.width, t), ts: stamps[i]}
	}
	w.last = clock
}

func (w *TimeWindow) grow() {
	next := make([]timedTuple, 2*len(w.buf))
	for i := 0; i < w.n; i++ {
		next[i] = w.buf[(w.head+i)%len(w.buf)]
	}
	w.buf = next
	w.head = 0
}
