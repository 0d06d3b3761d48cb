package acache

import (
	"fmt"

	"acache/internal/stream"
	"acache/internal/tuple"
)

// ingress is the front both engines share: it turns the public entry points
// (Insert, Delete, Append, AppendBatch, AppendAt, AdvanceTime) into the one
// thing the executor sees — a stream of insert and delete updates (STREAM
// §2: an append is an insert now plus a delete when the tuple leaves its
// window). It owns the window operators, so window semantics are global and
// identical for serial and sharded execution, and it stamps every update's
// Rel and Seq. Each call returns a slice of its reusable scratch, valid until
// the next call; what the slice is handed to — the core engine inline, or
// the shard mailboxes — is the only difference between the engines.
type ingress struct {
	q        *Query
	windows  []*stream.SlidingWindow     // non-nil for count-windowed and unbounded relations
	timeWins []*stream.TimeWindow        // non-nil for time-windowed relations
	partWins []*stream.PartitionedWindow // non-nil for partitioned relations
	clone    []cloner                    // per relation: ingress rows → window tuples
	ups      []stream.Update             // the last call's updates, reused per call
	rows     []tuple.Tuple               // appendRows' cloned rows, reused per call
	seq      uint64                      // Seq of the last stamped update
	server   *Server                     // non-nil when hosted by a Server
}

func newIngress(q *Query) ingress {
	n := len(q.names)
	in := ingress{
		q:        q,
		windows:  make([]*stream.SlidingWindow, n),
		timeWins: make([]*stream.TimeWindow, n),
		partWins: make([]*stream.PartitionedWindow, n),
		clone:    make([]cloner, n),
	}
	for i, w := range q.windows {
		switch {
		case q.spans[i] > 0:
			in.timeWins[i] = stream.NewTimeWindow(q.spans[i])
		case q.partBy[i] != "":
			col := q.schemas[i].MustColOf(tuple.Attr{Rel: i, Name: q.partBy[i]})
			in.partWins[i] = stream.NewPartitionedWindow(w, col)
		default:
			in.windows[i] = stream.NewSlidingWindow(w)
		}
	}
	return in
}

// front gives a Server the ingress of a hosted engine of either kind.
func (in *ingress) front() *ingress { return in }

// stamp gives in.ups[from:] relation rel and the next sequence numbers.
func (in *ingress) stamp(from, rel int) []stream.Update {
	for i := from; i < len(in.ups); i++ {
		in.ups[i].Rel = rel
		in.seq++
		in.ups[i].Seq = in.seq
	}
	return in.ups
}

// update is one Insert or Delete of relation rel; its tuple aliases values.
func (in *ingress) update(op stream.Op, rel int, values []int64) []stream.Update {
	in.q.checkArity(rel, values)
	in.ups = append(in.ups[:0], stream.Update{Op: op, Tuple: tuple.Tuple(values)})
	return in.stamp(0, rel)
}

// checkKind panics unless relation rel's window kind takes the entry point:
// AppendAt (timed) feeds time windows, Append and AppendBatch the others.
func (in *ingress) checkKind(rel int, timed bool) {
	switch {
	case timed && in.timeWins[rel] == nil:
		panic(fmt.Sprintf("acache: relation %q is not time-windowed; use Append or Insert", in.q.names[rel]))
	case !timed && in.timeWins[rel] != nil:
		panic(fmt.Sprintf("acache: relation %q is time-windowed; use AppendAt", in.q.names[rel]))
	}
}

// appendRow runs relation rel's count or partitioned window for one row: the
// expiry delete (if the window was full), then the insert.
func (in *ingress) appendRow(rel int, values []int64) []stream.Update {
	in.q.checkArity(rel, values)
	in.checkKind(rel, false)
	if w := in.partWins[rel]; w != nil {
		in.ups = w.AppendInto(in.clone[rel].clone(values), in.ups[:0])
	} else {
		in.ups = in.windows[rel].AppendInto(in.clone[rel].clone(values), in.ups[:0])
	}
	return in.stamp(0, rel)
}

// appendRows runs relation rel's count or partitioned window for a batch of
// rows on the grouped schedule (stream.SlidingWindow.AppendBatchInto): the
// expiry deletes the batch forces out first, then the inserts — two long
// same-operation runs the batch executor vectorizes.
func (in *ingress) appendRows(rel int, rows [][]int64) []stream.Update {
	in.checkKind(rel, false)
	ts := in.rows[:0]
	for _, r := range rows {
		in.q.checkArity(rel, r)
		ts = append(ts, in.clone[rel].clone(r))
	}
	in.rows = ts
	if w := in.partWins[rel]; w != nil {
		in.ups = w.AppendBatchInto(ts, in.ups[:0])
	} else {
		in.ups = in.windows[rel].AppendBatchInto(ts, in.ups[:0])
	}
	return in.stamp(0, rel)
}

// appendAt moves the global clock to ts (see advance), then appends one row
// to time-windowed relation rel.
func (in *ingress) appendAt(rel int, ts int64, values []int64) []stream.Update {
	in.checkKind(rel, true)
	in.q.checkArity(rel, values)
	n := len(in.advance(ts))
	in.ups = append(in.ups, in.timeWins[rel].Append(in.clone[rel].clone(values), ts)...)
	return in.stamp(n, rel)
}

// advance moves the global clock to ts: every time window's expiry deletes,
// oldest first, relations in declaration order.
func (in *ingress) advance(ts int64) []stream.Update {
	in.ups = in.ups[:0]
	for rel, w := range in.timeWins {
		if w != nil {
			n := len(in.ups)
			in.ups = append(in.ups, w.AdvanceTo(ts)...)
			in.stamp(n, rel)
		}
	}
	return in.ups
}

// cloneChunkTuples is how many tuples a cloner carves out of one chunk: large
// enough that ingress costs 1/128 allocations per append, small enough that
// the partly expired chunk at a window's tail and the partly filled one at
// its head stay invisible next to the window itself.
const cloneChunkTuples = 128

// cloner copies ingress rows into tuples bump-allocated from chunks. A chunk
// is never written again once carved and never recycled — the collector frees
// it when no tuple in it is referenced — so a cloned tuple is immutable and
// valid for as long as anyone holds it: the window ring, relation stores,
// shard mailboxes and replay logs all keep them past the call.
type cloner struct{ free []tuple.Value }

func (c *cloner) clone(values []int64) tuple.Tuple {
	n := len(values)
	if len(c.free) < n {
		c.free = make([]tuple.Value, cloneChunkTuples*n)
	}
	t := c.free[:n:n]
	c.free = c.free[n:]
	copy(t, values)
	return t
}
