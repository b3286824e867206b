// Package core implements the paper's primary contribution: the
// equation-based rate control models (basic control, eq. 3, and
// comprehensive control, eq. 4), their long-run throughput (Propositions
// 1-3), and the conservativeness analysis (Theorems 1-2, the explicit
// bound eq. 10, and Proposition 4's deviation-from-convexity bound).
//
// The controls are driven by an abstract loss-event interval process
// (package lossmodel); this is exactly the paper's setting for the
// conservativeness question, which studies the source in isolation under
// a given loss process.
//
// Only the estimator is a recurrence: given θ_n and θ̂_n (and the
// threshold θ*_n of the comprehensive control), each rate X_n and
// duration S_n can be computed on its own (Proposition 1, eq. 4). A run
// therefore has three phases. A sequential trace draws the loss
// intervals, advances the estimator and records θ_n, θ̂_n and θ*_n;
// the rates and durations are then evaluated over contiguous index
// ranges, one per goroutine on up to GOMAXPROCS goroutines, each range
// writing only its own slots; and a fold sums the statistics in event
// order. Every float operation and summation order is that of a single
// sequential loop, so results are bit-identical on any number of CPUs.
// The split shortens a run only while other CPUs are idle; when every
// CPU is busy it only adds the cost of starting the helpers. The
// per-event buffers are kept on a free list and reused across runs.
package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/estimator"
	"repro/internal/formula"
	"repro/internal/lossmodel"
	"repro/internal/numerics"
	"repro/internal/stats"
)

// Result summarizes a long-run simulation of a control.
type Result struct {
	// Throughput is the long-run time-average send rate x̄ in
	// packets/second (Σθ_n / ΣS_n: packets sent over elapsed time).
	Throughput float64
	// LossEventRate is p = 1/E[θ0], the loss-event rate seen by the
	// source (eq. 1).
	LossEventRate float64
	// FormulaRate is f(p) evaluated at the observed loss-event rate.
	FormulaRate float64
	// Normalized is Throughput/FormulaRate: the paper's x̄/f(p).
	// Values below 1 mean the control is conservative.
	Normalized float64
	// CovThetaHat is cov[θ0, θ̂0] — condition (C1) of Theorem 1 asks
	// whether this is <= 0.
	CovThetaHat float64
	// CovThetaHatNorm is cov[θ0, θ̂0]·p², the normalized covariance the
	// paper plots in Figures 5 and 10.
	CovThetaHatNorm float64
	// CovXS is cov[X0, S0] — conditions (C2)/(C2c) of Theorem 2.
	CovXS float64
	// CVEstimator is the coefficient of variation of θ̂0 (the estimator
	// variability of Claims 1-2); CVEstimatorSq is its square, plotted
	// in Figure 6 (bottom).
	CVEstimator, CVEstimatorSq float64
	// MeanInterLossTime is E[S0], the mean inter loss-event time in
	// seconds.
	MeanInterLossTime float64
	// Events is the number of loss events measured (after warmup).
	Events int
	// RateCoupled reports whether the interval durations were coupled
	// to the send rate as S_n = θ_n/X_n (basic and comprehensive
	// controls). Theorem 1 presumes this coupling; the fixed-packet-rate
	// (audio) scenario breaks it, leaving only Theorem 2 applicable.
	RateCoupled bool
}

// Conservative reports whether the run came out conservative
// (throughput at most f(p), within slack eps to absorb Monte Carlo
// noise).
func (r Result) Conservative(eps float64) bool { return r.Normalized <= 1+eps }

// Config describes a control simulation run.
type Config struct {
	// Formula is the loss-throughput function f.
	Formula formula.Formula
	// Weights are the estimator weights (most-recent-first); they are
	// normalized internally. Use estimator.TFRCWeights(L) for TFRC.
	Weights []float64
	// Process generates the loss-event intervals θ_n.
	Process lossmodel.Process
	// Events is the number of measured loss events.
	Events int
	// Warmup is the number of initial events discarded (estimator
	// fill plus transient). Defaults to 10·L if zero.
	Warmup int
	// IntegrationPanels sets the quadrature resolution for the
	// comprehensive control's in-interval rate integral. Defaults to 64.
	IntegrationPanels int
}

func (c *Config) validate() {
	if c.Formula == nil || c.Process == nil {
		panic("core: config needs a formula and a process")
	}
	if len(c.Weights) == 0 {
		panic("core: config needs estimator weights")
	}
	if c.Events <= 0 {
		panic("core: config needs a positive event count")
	}
	if c.Warmup < 0 {
		panic(fmt.Sprintf("core: config Warmup %d is negative", c.Warmup))
	}
	if c.IntegrationPanels < 0 {
		panic(fmt.Sprintf("core: config IntegrationPanels %d is negative", c.IntegrationPanels))
	}
	if c.Warmup == 0 {
		c.Warmup = 10 * len(c.Weights)
	}
	if c.IntegrationPanels == 0 {
		c.IntegrationPanels = 64
	}
}

// RunBasic simulates the basic control (eq. 3): the rate is held at
// f(1/θ̂_n) for the whole inter loss-event interval, so the interval
// duration is S_n = θ_n / f(1/θ̂_n). It returns the long-run statistics.
// This is a Monte Carlo evaluation of Proposition 1.
func RunBasic(cfg Config) Result {
	cfg.validate()
	res := run(cfg, basicDuration{})
	res.RateCoupled = true
	return res
}

// RunComprehensive simulates the comprehensive control (eq. 4): within an
// interval the rate rises once the open interval θ(t) lifts the
// estimator. The interval duration is
//
//	S_n = min(θ*, θ_n)/f(1/θ̂_n) + (1/w1)·∫_{θ̂_n}^{θ̂_{n+1}} g(y) dy
//
// with g(y) = 1/f(1/y) and θ* the threshold of condition A_t. The
// integral is evaluated by quadrature for arbitrary f; for SQRT and
// PFTK-simplified the closed form of Proposition 3 is available via
// IntervalDurationProp3 and is tested to agree.
func RunComprehensive(cfg Config) Result {
	cfg.validate()
	res := run(cfg, comprehensiveDuration{panels: cfg.IntegrationPanels})
	res.RateCoupled = true
	return res
}

// RunFixedPacketRate simulates the paper's "audio" scenario of Claim 2
// and Figure 6: the sender emits packets at a fixed rate (one packet per
// packetSpacing seconds) and modulates the packet length — and thus the
// bit rate X — by the equation. The inter loss-event time is then
// S_n = θ_n·packetSpacing, independent of X, so cov[X0, S0] = 0 and
// Theorem 2 governs the outcome.
func RunFixedPacketRate(cfg Config, packetSpacing float64) Result {
	cfg.validate()
	if !(packetSpacing > 0) || math.IsInf(packetSpacing, 1) {
		panic(fmt.Sprintf("core: packet spacing %v is not positive and finite", packetSpacing))
	}
	return run(cfg, audioDuration{spacing: packetSpacing})
}

// durationModel computes, for one loss interval, the interval duration
// S_n in seconds from the estimator state recorded before the interval,
// the interval length θ_n in packets and the rate X_n at the interval
// start. interval runs concurrently over disjoint events, so it must be
// a pure function of its arguments.
type durationModel interface {
	interval(f formula.Formula, st estState, theta, rate float64) (duration float64)
	// usesThreshold reports whether interval reads st.thetaStar, so
	// the trace records it.
	usesThreshold() bool
	// byteRate reports whether X is a byte rate decoupled from the
	// packet count, as in the audio scenario, so that the volume ∫X dt
	// sent over an interval is X_n·S_n. Otherwise X is a packet rate
	// and the volume equals θ_n exactly.
	byteRate() bool
}

// estState is the estimator state an interval starts from, as the trace
// recorded it: θ̂_n, the open-interval threshold θ*_n (recorded only
// for models whose usesThreshold is true) and the first normalized
// weight w1.
type estState struct{ hat, thetaStar, w1 float64 }

type basicDuration struct{}

func (basicDuration) interval(_ formula.Formula, _ estState, theta, rate float64) float64 {
	return theta / rate
}

func (basicDuration) usesThreshold() bool { return false }

func (basicDuration) byteRate() bool { return false }

type audioDuration struct{ spacing float64 }

func (a audioDuration) interval(_ formula.Formula, _ estState, theta, _ float64) float64 {
	return theta * a.spacing
}

func (audioDuration) usesThreshold() bool { return false }

func (audioDuration) byteRate() bool { return true }

type comprehensiveDuration struct{ panels int }

func (c comprehensiveDuration) interval(f formula.Formula, st estState, theta, rate float64) float64 {
	if theta <= st.thetaStar {
		return theta / rate
	}
	// Constant-rate phase up to the threshold, then the rate follows
	// f(1/θ̂(t)) with θ̂(t) = w1·θ(t) + W_n. Substituting
	// y = w1·θ + W_n turns the time integral into (1/w1)∫ g(y) dy from
	// θ̂_n to θ̂_{n+1}.
	hatNext := st.hat + st.w1*(theta-st.thetaStar)
	g := formula.G(f)
	tail := numerics.Trapezoid(g, st.hat, hatNext, c.panels) / st.w1
	return st.thetaStar/rate + tail
}

func (comprehensiveDuration) usesThreshold() bool { return true }

func (comprehensiveDuration) byteRate() bool { return false }

// IntervalDurationProp3 returns S_n by the closed form of Proposition 3,
// valid when f is SQRT or PFTK-simplified:
//
//	S_n = θ_n/f(1/θ̂_n) − V_n·1{θ̂_{n+1} > θ̂_n}
//
// where hatN = θ̂_n and hatNext = θ̂_{n+1} and w1 is the first estimator
// weight. It returns an error for formulae the closed form does not
// cover (PFTK-standard's min term has no elementary antiderivative split
// in the paper).
func IntervalDurationProp3(f formula.Formula, w1, hatN, hatNext, theta float64) (float64, error) {
	if w1 <= 0 || hatN <= 0 || theta <= 0 {
		return 0, fmt.Errorf("core: invalid Proposition 3 arguments")
	}
	base := theta / f.Rate(1/hatN)
	if hatNext <= hatN {
		return base, nil
	}
	p := f.Params()
	c1 := p.C1()
	var qc2 float64
	switch f.(type) {
	case formula.SQRT:
		qc2 = 0
	case formula.PFTKSimplified:
		qc2 = p.Q * p.C2()
	default:
		return 0, fmt.Errorf("core: Proposition 3 closed form undefined for %s", f.Name())
	}
	// B_n = S_n − U_n from the appendix: the antiderivative of g
	// evaluated between θ̂_n and θ̂_{n+1}, divided by w1.
	bn := (2*c1*p.R*(math.Sqrt(hatNext)-math.Sqrt(hatN)) -
		2*qc2*(1/math.Sqrt(hatNext)-1/math.Sqrt(hatN)) -
		(64.0/5)*qc2*(math.Pow(hatNext, -2.5)-math.Pow(hatN, -2.5))) / w1
	vn := -bn + (hatNext-hatN)/(w1*f.Rate(1/hatN))
	return base - vn, nil
}

// minChunk is the longest run whose evaluation stays on the caller's
// goroutine; a longer run is split into min(GOMAXPROCS, ⌈n/minChunk⌉)
// contiguous index ranges of about equal length, one per goroutine. A
// goroutine costs about a microsecond to start, against tens of
// nanoseconds per event.
const minChunk = 1024

// runBuffers holds one run's per-event samples, indexed by measured
// event: the trace's θ_n, θ̂_n and θ*_n, and the evaluation's X_n and
// S_n. Finished runs return it to a free list, so the buffers keep
// their capacity across runs.
type runBuffers struct {
	theta, hat, star, rate, dur []float64
	// w1 is the estimator's first normalized weight.
	w1 float64

	// The current run's evaluation: the formula and duration model,
	// the number of index ranges and the panic, if any, each range
	// raised.
	f      formula.Formula
	dm     durationModel
	parts  int
	panics []any
	wg     sync.WaitGroup
	// helpers[k] evaluates range k on a helper goroutine. Each is
	// bound once per buffer set, so starting a helper allocates
	// nothing.
	helpers []func()
}

// freeBuffers holds the buffer sets of finished runs. It keeps at most
// GOMAXPROCS of them, about as many as there are concurrent runs, so
// what it holds is bounded by the runs' own peak use; a set keeps the
// capacity of the longest run it served (40 bytes per event) until the
// process exits. Unlike a sync.Pool, it keeps its sets across garbage
// collections and reuses them in the same way in race-detector builds.
var freeBuffers struct {
	sync.Mutex
	sets []*runBuffers
}

// getBuffers takes a buffer set from the free list, or a new one.
func getBuffers() *runBuffers {
	freeBuffers.Lock()
	defer freeBuffers.Unlock()
	n := len(freeBuffers.sets)
	if n == 0 {
		return new(runBuffers)
	}
	b := freeBuffers.sets[n-1]
	freeBuffers.sets[n-1] = nil
	freeBuffers.sets = freeBuffers.sets[:n-1]
	return b
}

// putBuffers returns b to the free list unless the list is full.
func putBuffers(b *runBuffers) {
	b.f, b.dm = nil, nil
	clear(b.panics)
	freeBuffers.Lock()
	defer freeBuffers.Unlock()
	if len(freeBuffers.sets) < runtime.GOMAXPROCS(0) {
		freeBuffers.sets = append(freeBuffers.sets, b)
	}
}

// run simulates a control in three phases: a sequential trace of the
// loss intervals and the estimator, the per-event rates and durations
// evaluated across GOMAXPROCS goroutines, and an in-order fold into the
// long-run statistics. Every sum is taken in event order, so the result
// is bit-identical on any number of CPUs.
func run(cfg Config, dm durationModel) Result {
	b := getBuffers()
	defer putBuffers(b)
	b.trace(cfg, dm.usesThreshold())
	b.evaluate(cfg.Formula, dm)
	return b.fold(cfg.Formula, dm)
}

// grow returns s resliced to length n, reallocated only when its
// capacity is short.
func grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// trace draws the loss intervals and advances the estimator, the only
// recurrence of the controls: for every measured event it records θ_n,
// θ̂_n and, when threshold is set, θ*_n. Warmup events only advance
// the estimator.
func (b *runBuffers) trace(cfg Config, threshold bool) {
	est := estimator.NewLossIntervalEstimator(cfg.Weights)
	// Fill the estimator window, then run the warmup.
	for i := 0; i < len(cfg.Weights)+cfg.Warmup; i++ {
		est.Observe(cfg.Process.Next())
	}
	n := cfg.Events
	b.theta, b.hat, b.star = grow(b.theta, n), grow(b.hat, n), b.star[:0]
	if threshold {
		b.star = grow(b.star, n)
	}
	b.w1 = est.FirstWeight()
	for i := 0; i < n; i++ {
		b.hat[i] = est.Estimate()
		if threshold {
			b.star[i] = est.OpenThreshold()
		}
		b.theta[i] = cfg.Process.Next()
		est.Observe(b.theta[i])
	}
}

// evaluate fills X_n = f(1/θ̂_n) and S_n for every measured event,
// over min(GOMAXPROCS, ⌈n/minChunk⌉) contiguous index ranges: the
// caller evaluates the first and one helper goroutine each of the
// others, and each range writes only its own slots. A run of at most
// minChunk events, or any run at GOMAXPROCS 1, is one range and starts
// no helper. A panic in any range is re-raised on the caller once all
// ranges are done, the lowest range's first, which is the panic a
// sequential evaluation would have raised.
func (b *runBuffers) evaluate(f formula.Formula, dm durationModel) {
	n := len(b.theta)
	b.rate, b.dur = grow(b.rate, n), grow(b.dur, n)
	b.f, b.dm = f, dm
	b.parts = min(runtime.GOMAXPROCS(0), (n+minChunk-1)/minChunk)
	if cap(b.panics) < b.parts {
		b.panics = make([]any, b.parts)
	}
	b.panics = b.panics[:b.parts]
	clear(b.panics)
	for k := len(b.helpers); k < b.parts; k++ {
		b.helpers = append(b.helpers, func() {
			defer b.wg.Done()
			b.evalPart(k)
		})
	}
	b.wg.Add(b.parts - 1)
	for k := 1; k < b.parts; k++ {
		go b.helpers[k]()
	}
	b.evalPart(0)
	b.wg.Wait()
	for _, p := range b.panics {
		if p != nil {
			panic(p)
		}
	}
}

// evalPart evaluates range k of b.parts, recording its panic.
func (b *runBuffers) evalPart(k int) {
	defer func() {
		if r := recover(); r != nil {
			b.panics[k] = r
		}
	}()
	n := len(b.theta)
	b.evalRange(k*n/b.parts, (k+1)*n/b.parts)
}

// evalRange fills X and S for the events lo to hi−1.
func (b *runBuffers) evalRange(lo, hi int) {
	f, dm := b.f, b.dm
	st := estState{w1: b.w1}
	for i := lo; i < hi; i++ {
		st.hat = b.hat[i]
		if len(b.star) > 0 {
			st.thetaStar = b.star[i]
		}
		rate := f.Rate(1 / st.hat)
		b.rate[i] = rate
		b.dur[i] = dm.interval(f, st, b.theta[i], rate)
	}
}

// fold computes the long-run statistics in two passes over the events:
// the sums, then the deviations from the means. Each accumulator adds
// in event order, exactly as stats.Mean, stats.Covariance and stats.CV
// would, so the bits match the per-statistic functions.
func (b *runBuffers) fold(f formula.Formula, dm durationModel) Result {
	var sumTheta, sumHat, sumRate, sumS float64
	for i, theta := range b.theta {
		sumTheta += theta
		sumHat += b.hat[i]
		sumRate += b.rate[i]
		sumS += b.dur[i]
	}
	// A packet-rate control sends θ_n packets per interval, so its
	// volume sum is the θ sum.
	sumVolume := sumTheta
	if dm.byteRate() {
		sumVolume = 0
		for i, x := range b.rate {
			sumVolume += x * b.dur[i]
		}
	}
	n := float64(len(b.theta))
	meanTheta, meanHat, meanRate, meanS := sumTheta/n, sumHat/n, sumRate/n, sumS/n
	var covThetaHat, covXS, varHat float64
	for i, theta := range b.theta {
		dh := b.hat[i] - meanHat
		covThetaHat += (theta - meanTheta) * dh
		covXS += (b.rate[i] - meanRate) * (b.dur[i] - meanS)
		varHat += dh * dh
	}
	covThetaHat /= n
	p := 1 / meanTheta
	fp := f.Rate(p)
	res := Result{
		Throughput:        sumVolume / sumS,
		LossEventRate:     p,
		FormulaRate:       fp,
		CovThetaHat:       covThetaHat,
		CovThetaHatNorm:   covThetaHat * p * p,
		CovXS:             covXS / n,
		CVEstimator:       math.Sqrt(varHat/n) / meanHat,
		MeanInterLossTime: meanS,
		Events:            len(b.theta),
	}
	res.Normalized = res.Throughput / fp
	res.CVEstimatorSq = res.CVEstimator * res.CVEstimator
	return res
}

// Theorem1Bound evaluates the explicit bound of eq. (10):
//
//	E[X(0)] <= f(p) / (1 + (f'(p)·p/f(p))·cov[θ0,θ̂0]·p²)
//
// valid when cov·p² < −f(p)/(f'(p)·p). The derivative is computed by a
// central difference. The second return reports whether the bound's
// validity condition holds (the denominator is positive).
func Theorem1Bound(f formula.Formula, p, covThetaHat float64) (bound float64, valid bool) {
	if p <= 0 || p >= 1 {
		panic("core: loss-event rate outside (0,1)")
	}
	h := p * 1e-6
	fp := f.Rate(p)
	fprime := (f.Rate(p+h) - f.Rate(p-h)) / (2 * h)
	elasticity := fprime * p / fp // negative, since f is decreasing
	denom := 1 + elasticity*covThetaHat*p*p
	if denom <= 0 {
		return math.Inf(1), false
	}
	return fp / denom, true
}

// Prop4Bound returns Proposition 4's overshoot bound: under (C1) the
// basic control cannot exceed f(p) by more than the
// deviation-from-convexity ratio of g = 1/f(1/x) over the loss-interval
// range [xlo, xhi] sampled at n points.
func Prop4Bound(f formula.Formula, xlo, xhi float64, n int) float64 {
	ratio, _ := formula.DeviationFromConvexity(f, xlo, xhi, n)
	return ratio
}

// Verdict classifies what the paper's theory predicts for a control run.
type Verdict int

// Verdict values.
const (
	// Inconclusive means no theorem hypothesis is satisfied.
	Inconclusive Verdict = iota
	// PredictConservative means Theorem 1 or the first part of
	// Theorem 2 applies.
	PredictConservative
	// PredictNonConservative means the second part of Theorem 2
	// ((F2c)+(C2c)+(V)) applies.
	PredictNonConservative
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case PredictConservative:
		return "conservative"
	case PredictNonConservative:
		return "non-conservative"
	default:
		return "inconclusive"
	}
}

// ConditionReport captures which hypotheses of Theorems 1 and 2 hold for
// a given run, evaluated on the region where the estimator took values.
type ConditionReport struct {
	// F1 is the convexity of g(x) = 1/f(1/x) on the estimator range.
	F1 bool
	// F2 is the concavity of f(1/x) on the range; F2c its strict
	// convexity there.
	F2, F2c bool
	// C1 is cov[θ0, θ̂0] <= 0 (within tolerance); C2 is
	// cov[X0, S0] <= 0; C2c is cov[X0, S0] >= 0.
	C1, C2, C2c bool
	// V is the non-degeneracy of the estimator (non-zero variance).
	V bool
	// EstimatorLo and EstimatorHi bound the observed θ̂ range used for
	// the shape checks.
	EstimatorLo, EstimatorHi float64
	// Verdict is the theory's prediction.
	Verdict Verdict
}

// Classify evaluates the hypotheses of Theorems 1 and 2 against a
// measured Result, checking the function-shape conditions on the
// estimator's observed range [lo, hi]. tol is the tolerance on the
// normalized covariances (use a few percent for Monte Carlo data).
func Classify(f formula.Formula, r Result, lo, hi, tol float64) ConditionReport {
	if hi <= lo || lo <= 0 {
		panic("core: invalid estimator range")
	}
	grid := numerics.Grid(lo, hi, 257)
	rep := ConditionReport{
		F1:          numerics.IsConvexOnGrid(formula.G(f), grid, 1e-9),
		F2:          numerics.IsConcaveOnGrid(formula.F1x(f), grid, 1e-9),
		F2c:         numerics.IsConvexOnGrid(formula.F1x(f), grid, 1e-9),
		V:           r.CVEstimator > 1e-9,
		EstimatorLo: lo,
		EstimatorHi: hi,
	}
	rep.C1 = r.CovThetaHatNorm <= tol
	xsScale := r.CovXS / (r.Throughput * r.MeanInterLossTime * r.MeanInterLossTime)
	rep.C2 = xsScale <= tol
	rep.C2c = xsScale >= -tol
	// Theorem 1 presumes the basic control's S_n = θ_n/X_n coupling; for
	// decoupled durations (the audio scenario) only Theorem 2 applies.
	switch {
	case r.RateCoupled && rep.F1 && rep.C1:
		rep.Verdict = PredictConservative
	case rep.F2 && rep.C2:
		rep.Verdict = PredictConservative
	case rep.F2c && rep.C2c && rep.V:
		rep.Verdict = PredictNonConservative
	default:
		rep.Verdict = Inconclusive
	}
	return rep
}

// EstimatorRange runs a short pilot of the configured process through the
// estimator and returns the [qlo, qhi] quantile range of observed θ̂
// values, for use with Classify. The paper's shape conditions are about
// "the region where the loss-event interval estimator takes its values";
// the bulk range (e.g. quantiles 0.1-0.9) captures that region while
// excluding rare excursions across an inflection point.
func EstimatorRange(cfg Config, pilotEvents int, qlo, qhi float64) (lo, hi float64) {
	if pilotEvents <= 0 {
		panic("core: non-positive pilot length")
	}
	if qlo < 0 || qhi > 1 || qlo >= qhi {
		panic("core: invalid quantile range")
	}
	est := estimator.NewLossIntervalEstimator(cfg.Weights)
	for i := 0; i < len(cfg.Weights); i++ {
		est.Observe(cfg.Process.Next())
	}
	hats := make([]float64, pilotEvents)
	for i := range hats {
		hats[i] = est.Estimate()
		est.Observe(cfg.Process.Next())
	}
	lo = stats.Quantile(hats, qlo)
	hi = stats.Quantile(hats, qhi)
	if hi <= lo {
		hi = lo * (1 + 1e-6)
	}
	return lo, hi
}
