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
package core

import (
	"fmt"
	"math"

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
	if packetSpacing <= 0 {
		panic("core: non-positive packet spacing")
	}
	return run(cfg, audioDuration{spacing: packetSpacing})
}

// durationModel computes, for one loss interval, the interval duration
// S_n in seconds and the volume ∫X dt sent over it in the units of X,
// given the estimator state before the interval, the interval length θ_n
// in packets and the rate X_n at the interval start.
//
// For the basic and comprehensive controls X is a packet rate, so the
// volume equals θ_n exactly. For the audio scenario X is a byte rate
// decoupled from the fixed packet rate, so the volume is X_n·S_n.
type durationModel interface {
	interval(est *estimator.LossIntervalEstimator, f formula.Formula, theta, rate float64) (duration, volume float64)
}

type basicDuration struct{}

func (basicDuration) interval(_ *estimator.LossIntervalEstimator, _ formula.Formula, theta, rate float64) (float64, float64) {
	return theta / rate, theta
}

type audioDuration struct{ spacing float64 }

func (a audioDuration) interval(_ *estimator.LossIntervalEstimator, _ formula.Formula, theta, rate float64) (float64, float64) {
	d := theta * a.spacing
	return d, rate * d
}

type comprehensiveDuration struct{ panels int }

func (c comprehensiveDuration) interval(est *estimator.LossIntervalEstimator, f formula.Formula, theta, rate float64) (float64, float64) {
	thetaStar := est.OpenThreshold()
	if theta <= thetaStar {
		return theta / rate, theta
	}
	// Constant-rate phase up to the threshold, then the rate follows
	// f(1/θ̂(t)) with θ̂(t) = w1·θ(t) + W_n. Substituting
	// y = w1·θ + W_n turns the time integral into (1/w1)∫ g(y) dy from
	// θ̂_n to θ̂_{n+1}.
	w1 := est.FirstWeight()
	hatN := est.Estimate()
	hatNext := hatN + w1*(theta-thetaStar)
	g := formula.G(f)
	tail := numerics.Trapezoid(g, hatN, hatNext, c.panels) / w1
	return thetaStar/rate + tail, theta
}

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

func run(cfg Config, dm durationModel) Result {
	est := estimator.NewLossIntervalEstimator(cfg.Weights)
	// Fill the estimator window before measuring.
	for i := 0; i < len(cfg.Weights); i++ {
		est.Observe(cfg.Process.Next())
	}
	var (
		sumVolume, sumS float64
		thetas          = make([]float64, 0, cfg.Events)
		hats            = make([]float64, 0, cfg.Events)
		rates           = make([]float64, 0, cfg.Events)
		durations       = make([]float64, 0, cfg.Events)
	)
	total := cfg.Warmup + cfg.Events
	for n := 0; n < total; n++ {
		hat := est.Estimate()
		rate := cfg.Formula.Rate(1 / hat)
		theta := cfg.Process.Next()
		s, vol := dm.interval(est, cfg.Formula, theta, rate)
		if n >= cfg.Warmup {
			sumVolume += vol
			sumS += s
			thetas = append(thetas, theta)
			hats = append(hats, hat)
			rates = append(rates, rate)
			durations = append(durations, s)
		}
		est.Observe(theta)
	}
	meanTheta := stats.Mean(thetas)
	p := 1 / meanTheta
	fp := cfg.Formula.Rate(p)
	cov := stats.Covariance(thetas, hats)
	res := Result{
		Throughput:        sumVolume / sumS,
		LossEventRate:     p,
		FormulaRate:       fp,
		CovThetaHat:       cov,
		CovThetaHatNorm:   cov * p * p,
		CovXS:             stats.Covariance(rates, durations),
		CVEstimator:       stats.CV(hats),
		MeanInterLossTime: stats.Mean(durations),
		Events:            len(thetas),
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
