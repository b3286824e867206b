// Package estimator implements the loss-event interval estimator of the
// paper (eq. 2) — a moving average of the last L loss-event intervals
// with TFRC's flat-then-linearly-decaying weights, normalized to sum to
// one so that the estimate θ̂ is unbiased for the mean interval 1/p —
// plus the comprehensive-control in-interval update (eq. 4) and the
// standard EWMA round-trip-time estimator.
package estimator

import (
	"fmt"
	"math"
)

// TFRCWeights returns TFRC's weight vector of length L, normalized to sum
// to 1: w_l = 1 for l <= L/2, then decreasing linearly
// (w_l = 1 - (l - L/2)/(L/2 + 1) for l > L/2). For the default L = 8
// the unnormalized weights are 1,1,1,1,0.8,0.6,0.4,0.2, exactly as in
// RFC 3448. It panics if L < 1.
func TFRCWeights(L int) []float64 {
	if L < 1 {
		panic("estimator: window length must be >= 1")
	}
	w := make([]float64, L)
	half := L / 2
	sum := 0.0
	for l := 1; l <= L; l++ {
		v := 1.0
		if l > half {
			v = 1 - float64(l-half)/float64(half+1)
		}
		if v <= 0 {
			// Happens only for odd tiny L; keep a positive floor so all
			// L intervals contribute (weights must be positive, §II).
			v = 1 / float64(half+1) / 2
		}
		w[l-1] = v
		sum += v
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// UniformWeights returns the flat weight vector of length L (each 1/L).
// Used as an ablation against the TFRC weights.
func UniformWeights(L int) []float64 {
	if L < 1 {
		panic("estimator: window length must be >= 1")
	}
	w := make([]float64, L)
	for i := range w {
		w[i] = 1 / float64(L)
	}
	return w
}

// ExponentialWeights returns geometrically decaying weights
// w_l ∝ decay^(l-1), normalized. Used as an ablation.
func ExponentialWeights(L int, decay float64) []float64 {
	if L < 1 {
		panic("estimator: window length must be >= 1")
	}
	if decay <= 0 || decay > 1 {
		panic("estimator: decay must be in (0,1]")
	}
	w := make([]float64, L)
	v, sum := 1.0, 0.0
	for i := range w {
		w[i] = v
		sum += v
		v *= decay
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// LossIntervalEstimator maintains the moving-average estimate
// θ̂_n = Σ_l w_l · θ_{n-l} over the most recent L closed loss-event
// intervals (most recent first). Until L intervals have been observed it
// averages over the available history with renormalized weights, which is
// how TFRC bootstraps.
type LossIntervalEstimator struct {
	weights []float64
	history []float64 // history[0] is the most recent closed interval
}

// NewLossIntervalEstimator builds an estimator with the given weights
// (most-recent-first). The weights must be positive and finite, and so
// must their sum; they are normalized to sum to 1 so the estimator
// satisfies the unbiasedness condition (E).
func NewLossIntervalEstimator(weights []float64) *LossIntervalEstimator {
	if len(weights) == 0 {
		panic("estimator: empty weight vector")
	}
	w := make([]float64, len(weights))
	sum := 0.0
	for i, v := range weights {
		if !(v > 0) || math.IsInf(v, 1) {
			panic(fmt.Sprintf("estimator: weight %v at %d is not positive and finite", v, i))
		}
		w[i] = v
		sum += v
	}
	if math.IsInf(sum, 1) {
		panic(fmt.Sprintf("estimator: weights %v sum to %v", weights, sum))
	}
	for i := range w {
		w[i] /= sum
	}
	return &LossIntervalEstimator{weights: w}
}

// NewTFRC returns an estimator with TFRC weights of window L.
func NewTFRC(L int) *LossIntervalEstimator {
	return NewLossIntervalEstimator(TFRCWeights(L))
}

// Window returns the configured window length L.
func (e *LossIntervalEstimator) Window() int { return len(e.weights) }

// Weights returns a copy of the normalized weight vector.
func (e *LossIntervalEstimator) Weights() []float64 {
	return append([]float64(nil), e.weights...)
}

// FirstWeight returns the normalized weight w1 of the most recent
// interval, without the copy Weights makes: the comprehensive control
// reads it once per interval that crosses the open-interval threshold.
func (e *LossIntervalEstimator) FirstWeight() float64 { return e.weights[0] }

// Observe records a closed loss-event interval θ_n (in packets) and
// shifts the history. It panics on non-positive intervals.
func (e *LossIntervalEstimator) Observe(theta float64) {
	if theta <= 0 {
		panic("estimator: non-positive loss interval")
	}
	// Grow by one slot while the window fills, then shift in place: the
	// buffer reaches capacity L once and is reused forever after (Reset
	// keeps it), so pooled receivers observe without allocating.
	if len(e.history) < len(e.weights) {
		e.history = append(e.history, 0)
	}
	copy(e.history[1:], e.history[:len(e.history)-1])
	e.history[0] = theta
}

// Reset clears the observed history while keeping the weights and the
// history buffer's capacity, so a pooled receiver (the churn engine's
// recycled endpoints) renews its estimator without allocating.
func (e *LossIntervalEstimator) Reset() { e.history = e.history[:0] }

// Ready reports whether a full window of L intervals has been observed.
func (e *LossIntervalEstimator) Ready() bool { return len(e.history) >= len(e.weights) }

// Estimate returns θ̂_n. With fewer than L observed intervals, the
// weights over the available history are renormalized; with none, it
// returns 0 (callers must check Ready or seed via Prime).
func (e *LossIntervalEstimator) Estimate() float64 {
	if len(e.history) == 0 {
		return 0
	}
	sum, wsum := 0.0, 0.0
	for i, th := range e.history {
		sum += e.weights[i] * th
		wsum += e.weights[i]
	}
	return sum / wsum
}

// EstimateWithOpen returns the comprehensive-control estimate θ̂(t) of
// eq. (4): the estimate recomputed with the still-open interval θ(t)
// taking the most-recent slot, but only if that increases the estimate;
// otherwise the closed-interval estimate θ̂_n is kept. This is TFRC's
// "history includes the current interval if that raises the average".
func (e *LossIntervalEstimator) EstimateWithOpen(open float64) float64 {
	base := e.Estimate()
	if open <= 0 || len(e.history) == 0 {
		return base
	}
	sum := e.weights[0] * open
	wsum := e.weights[0]
	for i := 0; i < len(e.history) && i+1 < len(e.weights); i++ {
		sum += e.weights[i+1] * e.history[i]
		wsum += e.weights[i+1]
	}
	if cand := sum / wsum; cand > base {
		return cand
	}
	return base
}

// OpenThreshold returns the θ(t) value above which the open interval
// starts to lift the estimate — the boundary of the paper's condition
// A_t: θ(t) > (θ̂_n − Σ_{l≥2} w_l θ_{n-l+1}) / w_1. Below this value
// EstimateWithOpen returns Estimate.
func (e *LossIntervalEstimator) OpenThreshold() float64 {
	if len(e.history) == 0 {
		return 0
	}
	rest := 0.0
	for i := 0; i < len(e.history) && i+1 < len(e.weights); i++ {
		rest += e.weights[i+1] * e.history[i]
	}
	// With a full window, weights sum to 1 and the threshold solves
	// w1·x + rest = θ̂. With a partial window the same algebra applies
	// to the renormalized estimate; solve against the same wsum.
	wsum := e.weights[0]
	for i := 0; i < len(e.history) && i+1 < len(e.weights); i++ {
		wsum += e.weights[i+1]
	}
	return (e.Estimate()*wsum - rest) / e.weights[0]
}

// Prime fills the entire history with the given interval value, as TFRC
// does after its initial slow-start phase: the first loss interval is
// back-filled so the estimator starts at a meaningful rate.
func (e *LossIntervalEstimator) Prime(theta float64) {
	if theta <= 0 {
		panic("estimator: non-positive priming interval")
	}
	if cap(e.history) < len(e.weights) {
		e.history = make([]float64, len(e.weights))
	} else {
		e.history = e.history[:len(e.weights)]
	}
	for i := range e.history {
		e.history[i] = theta
	}
}

// History returns a copy of the closed-interval history, most recent
// first.
func (e *LossIntervalEstimator) History() []float64 {
	return append([]float64(nil), e.history...)
}

// RTT is the standard exponentially weighted moving-average round-trip
// time estimator used by TFRC: r ← q·r + (1−q)·sample with q = 0.9 by
// default. The zero value is not ready; use NewRTT.
type RTT struct {
	q     float64
	value float64
	ready bool
}

// NewRTT returns an RTT estimator with smoothing constant q in [0, 1).
// RFC 3448 uses q = 0.9.
func NewRTT(q float64) *RTT {
	if q < 0 || q >= 1 {
		panic("estimator: RTT smoothing constant outside [0,1)")
	}
	return &RTT{q: q}
}

// Sample incorporates a round-trip time measurement in seconds.
func (r *RTT) Sample(rtt float64) {
	if rtt <= 0 {
		panic("estimator: non-positive RTT sample")
	}
	if !r.ready {
		r.value = rtt
		r.ready = true
		return
	}
	r.value = r.q*r.value + (1-r.q)*rtt
}

// Reset forgets all samples, returning the estimator to its
// just-constructed state (the smoothing constant is kept).
func (r *RTT) Reset() { r.value, r.ready = 0, false }

// Value returns the current smoothed RTT (0 before any sample).
func (r *RTT) Value() float64 { return r.value }

// Ready reports whether at least one sample has been incorporated.
func (r *RTT) Ready() bool { return r.ready }
