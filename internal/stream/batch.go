package stream

// Batcher groups a single producer's updates into fixed-size per-route
// batches — the ingress side of sharded execution: routing updates to worker
// mailboxes one at a time would pay one channel operation per update, so the
// ingress accumulates a batch per shard and hands it off only when full (or
// on Flush).
//
// A Batcher is not safe for concurrent use; sharded ingress is
// single-producer by contract (the engine's global update order is defined
// by one caller).
type Batcher struct {
	size int
	bufs [][]Update
	emit func(route int, batch []Update)
}

// NewBatcher creates a batcher over the given number of routes. emit receives
// each completed batch and takes ownership of the slice; the batcher never
// touches an emitted batch again.
func NewBatcher(routes, size int, emit func(route int, batch []Update)) *Batcher {
	if size < 1 {
		size = 1
	}
	return &Batcher{
		size: size,
		bufs: make([][]Update, routes),
		emit: emit,
	}
}

// Add appends one update to a route's pending batch, emitting the batch when
// it reaches the configured size.
func (b *Batcher) Add(route int, u Update) {
	if b.bufs[route] == nil {
		b.bufs[route] = make([]Update, 0, b.size)
	}
	b.bufs[route] = append(b.bufs[route], u)
	if len(b.bufs[route]) >= b.size {
		b.emit(route, b.bufs[route])
		b.bufs[route] = nil
	}
}

// Flush emits every non-empty pending batch.
func (b *Batcher) Flush() {
	for route := range b.bufs {
		b.FlushRoute(route)
	}
}

// FlushRoute emits one route's pending batch, if it holds any update.
func (b *Batcher) FlushRoute(route int) {
	if buf := b.bufs[route]; len(buf) > 0 {
		b.emit(route, buf)
		b.bufs[route] = nil
	}
}

// Len returns the number of updates buffered for one route; it is always
// below the batch size.
func (b *Batcher) Len(route int) int { return len(b.bufs[route]) }

// Pending returns the number of buffered (not yet emitted) updates.
func (b *Batcher) Pending() int {
	n := 0
	for _, buf := range b.bufs {
		n += len(buf)
	}
	return n
}
