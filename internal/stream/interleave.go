package stream

// Interleaver deterministically merges n streams in proportion to their
// relative rates using error diffusion: each stream accumulates credit equal
// to its rate per tick; the stream with the most credit emits next and pays
// the total rate back. Over any long run the emission frequencies converge to
// the exact rate proportions, and the schedule is reproducible — the paper's
// "global ordering on input … the system could break ties" (Section 3.1).
type Interleaver struct {
	rates  []float64
	credit []float64
	total  float64
}

// NewInterleaver creates an interleaver over len(rates) streams with the
// given relative rates. Rates must be non-negative with a positive sum.
func NewInterleaver(rates []float64) *Interleaver {
	iv := &Interleaver{}
	iv.SetRates(rates)
	iv.credit = make([]float64, len(rates))
	return iv
}

// SetRates changes the relative rates, e.g. at the start or end of a burst.
// Credits are preserved so the transition does not starve any stream.
func (iv *Interleaver) SetRates(rates []float64) {
	total := 0.0
	for _, r := range rates {
		if r < 0 {
			panic("stream: negative rate")
		}
		total += r
	}
	if total <= 0 {
		panic("stream: rates must have positive sum")
	}
	iv.rates = append(iv.rates[:0], rates...)
	iv.total = total
}

// Next returns the index of the stream that emits the next tuple.
func (iv *Interleaver) Next() int {
	best, bestCredit := -1, 0.0
	for i := range iv.credit {
		iv.credit[i] += iv.rates[i]
		if iv.rates[i] > 0 && (best == -1 || iv.credit[i] > bestCredit) {
			best, bestCredit = i, iv.credit[i]
		}
	}
	iv.credit[best] -= iv.total
	return best
}
