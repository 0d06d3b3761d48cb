package stream

import "acache/internal/tuple"

// TupleGen produces the next tuple of an append-only stream. Implementations
// live in internal/synth; the stream layer only needs a way to pull tuples.
type TupleGen func() tuple.Tuple

// RelStream describes one input relation: its append-only tuple generator,
// its window size (≤ 0 for unbounded), and its relative arrival rate.
type RelStream struct {
	Gen        TupleGen
	WindowSize int
	Rate       float64
}

// Source merges n windowed relation streams into the single global update
// stream the engine consumes. Appends are interleaved in proportion to the
// configured rates; each append expands into the window's Delete/Insert
// updates, emitted consecutively (the expiry delete is processed immediately
// before the insert that caused it, matching the STREAM window operator).
type Source struct {
	rels    []RelStream
	windows []*SlidingWindow
	iv      *Interleaver
	pending []Update
	seq     uint64
	appends []uint64 // per-relation append counts
	total   uint64   // total appends so far
}

// NewSource builds a source over the given relation streams.
func NewSource(rels []RelStream) *Source {
	rates := make([]float64, len(rels))
	windows := make([]*SlidingWindow, len(rels))
	for i, r := range rels {
		rates[i] = r.Rate
		windows[i] = NewSlidingWindow(r.WindowSize)
	}
	return &Source{
		rels:    rels,
		windows: windows,
		iv:      NewInterleaver(rates),
		appends: make([]uint64, len(rels)),
	}
}

// Next returns the next update in the global ordering. It always succeeds:
// generators are infinite; callers decide when to stop.
func (s *Source) Next() Update {
	for len(s.pending) == 0 {
		rel := s.iv.Next()
		t := s.rels[rel].Gen()
		s.appends[rel]++
		s.total++
		ups := s.windows[rel].Append(t)
		for i := range ups {
			ups[i].Rel = rel
		}
		s.pending = ups
	}
	u := s.pending[0]
	s.pending = s.pending[1:]
	u.Seq = s.seq
	s.seq++
	return u
}

// SetRates changes the relative arrival rates mid-run (burst start/end).
func (s *Source) SetRates(rates []float64) { s.iv.SetRates(rates) }

// Appends returns the number of append-only stream tuples consumed from
// relation rel so far (the paper's x-axes count stream tuples, not updates).
func (s *Source) Appends(rel int) uint64 { return s.appends[rel] }

// TotalAppends returns the total appends across all relations.
func (s *Source) TotalAppends() uint64 { return s.total }
