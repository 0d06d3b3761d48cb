package join

import "acache/internal/tuple"

// valueArena is a bump allocator for the composite tuples a pipeline builds
// while processing one update. Values are carved out of fixed-size chunks so
// previously returned slices stay valid as the arena grows (a single
// growing backing slice would move them); reset makes every chunk reusable
// without freeing, so a warmed-up executor processes updates with zero heap
// allocations on the composite-tuple path.
//
// Arena-backed tuples are valid only until the owning executor starts the
// next update; everything that outlives an update (cache entries, profiler
// state, result sinks) copies what it keeps, which the pipeline contract
// already requires of taps and maintenance operators.
type valueArena struct {
	chunks [][]tuple.Value
	cur    int // chunk being allocated from
	off    int // next free value in chunks[cur]
}

// arenaChunkValues is sized so a typical update (a few hundred composite
// values) fits in one chunk; oversized requests get a dedicated chunk.
const arenaChunkValues = 4096

// reset makes the whole arena reusable. Previously returned slices become
// invalid.
func (a *valueArena) reset() {
	a.cur = 0
	a.off = 0
}

// alloc returns an uninitialized value slice of length n with no spare
// capacity (appends by callers would clobber neighbors otherwise).
func (a *valueArena) alloc(n int) []tuple.Value {
	if n > arenaChunkValues {
		// Oversized (a composite wider than a whole chunk — essentially
		// never): plain allocation rather than arena bookkeeping.
		return make([]tuple.Value, n)
	}
	if a.cur >= len(a.chunks) {
		a.chunks = append(a.chunks, make([]tuple.Value, arenaChunkValues))
	}
	if a.off+n > arenaChunkValues {
		a.cur++
		a.off = 0
		if a.cur >= len(a.chunks) {
			a.chunks = append(a.chunks, make([]tuple.Value, arenaChunkValues))
		}
	}
	out := a.chunks[a.cur][a.off : a.off+n : a.off+n]
	a.off += n
	return out
}

// project builds t's projection on cols in the arena.
func (a *valueArena) project(t tuple.Tuple, cols []int) tuple.Tuple {
	out := a.alloc(len(cols))
	for i, c := range cols {
		out[i] = t[c]
	}
	return out
}

// concat builds t ++ u in the arena.
func (a *valueArena) concat(t, u tuple.Tuple) tuple.Tuple {
	out := a.alloc(len(t) + len(u))
	copy(out, t)
	copy(out[len(t):], u)
	return out
}
