// Package stats provides the windowed online estimators used by the profiler
// and re-optimizer.
//
// Per Table 1 of the paper, the online estimate of any statistic is the
// average of its W most recent measurements (default W = 10). Window keeps a
// ring buffer of the last W observations with an O(1) running sum.
package stats

// Window is a sliding window over the last W float64 observations.
// The zero value is unusable; construct with NewWindow.
type Window struct {
	buf  []float64
	next int
	n    int
	sum  float64
}

// NewWindow creates a window of capacity w (w ≥ 1).
func NewWindow(w int) *Window {
	if w < 1 {
		w = 1
	}
	return &Window{buf: make([]float64, w)}
}

// Observe appends an observation, evicting the oldest when full.
func (w *Window) Observe(v float64) {
	if w.n == len(w.buf) {
		w.sum -= w.buf[w.next]
	} else {
		w.n++
	}
	w.buf[w.next] = v
	w.sum += v
	w.next = (w.next + 1) % len(w.buf)
}

// Mean returns the average of the current observations, or 0 when empty.
func (w *Window) Mean() float64 {
	if w.n == 0 {
		return 0
	}
	return w.sum / float64(w.n)
}

// Sum returns the sum of the current observations.
func (w *Window) Sum() float64 { return w.sum }

// RecentMean returns the mean of the most recent k observations (all of
// them when fewer are held), or 0 when empty.
func (w *Window) RecentMean(k int) float64 {
	if w.n == 0 {
		return 0
	}
	if k > w.n {
		k = w.n
	}
	sum := 0.0
	for i := 0; i < k; i++ {
		sum += w.buf[((w.next-1-i)+len(w.buf)*2)%len(w.buf)]
	}
	return sum / float64(k)
}

// Len returns the number of observations currently held.
func (w *Window) Len() int { return w.n }

// Full reports whether W observations have been collected — the profiler's
// readiness criterion before a cache's statistics are trusted (Section 4.5
// step 2).
func (w *Window) Full() bool { return w.n == len(w.buf) }

// Reset discards all observations.
func (w *Window) Reset() {
	w.n, w.next, w.sum = 0, 0, 0
	for i := range w.buf {
		w.buf[i] = 0
	}
}

// RateEstimator tracks events per simulated second over a sliding window of
// (count, elapsed) spans: rate(R_i) in Appendix A.
type RateEstimator struct {
	counts  *Window
	elapsed *Window
}

// NewRateEstimator creates a rate estimator averaging the last w spans.
func NewRateEstimator(w int) *RateEstimator {
	return &RateEstimator{counts: NewWindow(w), elapsed: NewWindow(w)}
}

// ObserveSpan records that count events occurred over sec simulated seconds.
func (r *RateEstimator) ObserveSpan(count int, sec float64) {
	r.counts.Observe(float64(count))
	r.elapsed.Observe(sec)
}

// Rate returns the estimated events/second, 0 if no time has elapsed.
func (r *RateEstimator) Rate() float64 {
	t := r.elapsed.Sum()
	if t <= 0 {
		return 0
	}
	return r.counts.Sum() / t
}

// Ready reports whether the estimator has a full window of spans.
func (r *RateEstimator) Ready() bool { return r.counts.Full() }
