// Package formula implements the TCP loss-throughput formulae studied in
// the paper: SQRT (Mathis et al.), PFTK-standard (Padhye et al., eq. 30)
// and PFTK-simplified (the RFC 3448 / TFRC recommendation), together with
// the derived functionals that drive the conservativeness analysis:
//
//	F1x(x) = f(1/x)      (rate as a function of the mean loss interval)
//	G(x)   = 1/f(1/x)    (whose convexity is condition (F1) of Theorem 1)
//
// Constants follow the paper: c1 = sqrt(2b/3), c2 = (3/2)*sqrt(3b/2),
// with b the number of packets acknowledged per ACK (typically 2), r the
// mean round-trip time in seconds and q the retransmission timeout value
// (recommended q = 4r). Rates are in packets per second.
//
// Rate is the analytic core's per-event cost: the Monte Carlo controls
// of package core call it once or more per loss interval. PFTK-simplified
// therefore derives p^{3/2} and p^{7/2} from one Exp/Log pair instead of
// two math.Pow calls, with results equal to math.Pow's bit for bit, so
// every pinned output digest is unchanged.
package formula

import (
	"fmt"
	"math"

	"repro/internal/numerics"
)

// Params bundles the path parameters every formula depends on.
type Params struct {
	// R is the mean round-trip time in seconds.
	R float64
	// Q is the TCP retransmit timeout value in seconds. The TFRC
	// proposed standard recommends Q = 4R.
	Q float64
	// B is the number of packets acknowledged by a single ACK
	// (delayed ACKs give B = 2, the practical default).
	B float64
}

// DefaultParams returns the paper's reference setting: r = 1 s, q = 4r,
// b = 2 (used in Figures 1 and 2).
func DefaultParams() Params { return Params{R: 1, Q: 4, B: 2} }

// ParamsForRTT returns parameters with the given RTT, q = 4·rtt and b = 2.
func ParamsForRTT(rtt float64) Params { return Params{R: rtt, Q: 4 * rtt, B: 2} }

// C1 returns c1 = sqrt(2b/3).
func (p Params) C1() float64 { return math.Sqrt(2 * p.B / 3) }

// C2 returns c2 = (3/2)·sqrt(3b/2).
func (p Params) C2() float64 { return 1.5 * math.Sqrt(3*p.B/2) }

// Validate reports an error for non-positive parameters.
func (p Params) Validate() error {
	if p.R <= 0 || p.Q < 0 || p.B <= 0 {
		return fmt.Errorf("formula: invalid params %+v", p)
	}
	return nil
}

// Formula is a positive, non-increasing loss-throughput function
// f: loss-event rate p in (0, 1] -> send rate in packets/second.
type Formula interface {
	// Rate returns f(p). Implementations must be positive and
	// non-increasing on (0, 1]. Rate must also be pure and safe for
	// concurrent calls: the Monte Carlo controls of package core call
	// it from several goroutines at once.
	Rate(p float64) float64
	// Name identifies the formula in experiment output.
	Name() string
	// Params returns the path parameters the formula was built with.
	Params() Params
}

// SQRT is the square-root formula f(p) = 1/(c1·r·sqrt(p)).
type SQRT struct{ P Params }

// NewSQRT returns the SQRT formula for the given parameters.
func NewSQRT(p Params) SQRT { return SQRT{P: p} }

// Rate implements Formula.
func (f SQRT) Rate(p float64) float64 {
	checkP(p)
	return 1 / (f.P.C1() * f.P.R * math.Sqrt(p))
}

// Name implements Formula.
func (SQRT) Name() string { return "SQRT" }

// Params implements Formula.
func (f SQRT) Params() Params { return f.P }

// PFTKStandard is the Padhye et al. throughput formula (eq. 30 of the
// PFTK paper, eq. 6 of this paper):
//
//	f(p) = 1 / (c1·r·sqrt(p) + q·min(1, c2·sqrt(p))·p·(1+32p²))
type PFTKStandard struct{ P Params }

// NewPFTKStandard returns the PFTK-standard formula.
func NewPFTKStandard(p Params) PFTKStandard { return PFTKStandard{P: p} }

// Rate implements Formula.
func (f PFTKStandard) Rate(p float64) float64 {
	checkP(p)
	sq := math.Sqrt(p)
	den := f.P.C1()*f.P.R*sq + f.P.Q*math.Min(1, f.P.C2()*sq)*p*(1+32*p*p)
	return 1 / den
}

// Name implements Formula.
func (PFTKStandard) Name() string { return "PFTK-standard" }

// Params implements Formula.
func (f PFTKStandard) Params() Params { return f.P }

// PFTKSimplified is the simplification recommended by the TFRC proposed
// standard (eq. 7 of the paper):
//
//	f(p) = 1 / (c1·r·sqrt(p) + q·c2·(p^{3/2} + 32·p^{7/2}))
//
// For p <= 1/c2² it coincides with PFTK-standard; above, it is smaller.
type PFTKSimplified struct{ P Params }

// NewPFTKSimplified returns the PFTK-simplified formula.
func NewPFTKSimplified(p Params) PFTKSimplified { return PFTKSimplified{P: p} }

// Rate implements Formula.
func (f PFTKSimplified) Rate(p float64) float64 {
	checkP(p)
	p15, p35 := pow15and35(p)
	den := f.P.C1()*f.P.R*math.Sqrt(p) + f.P.Q*f.P.C2()*(p15+32*p35)
	return 1 / den
}

// pow15and35 returns exactly math.Pow(p, 1.5) and math.Pow(p, 3.5) for
// finite p > 0, sharing the one Exp/Log pair both calls would compute.
// It replays pow's own steps: x^y = Exp(yf·Log(x)) · x^yi for the
// fractional part yf = 0.5 and the integer part yi, with x^yi built
// from Frexp's mantissa by repeated squaring and applied by Ldexp. The
// roundings are the same as pow's, so the results are bit-identical;
// p*math.Sqrt(p) is not (it differs in the last bit for about a fifth
// of p in (0, 1)), and TestPowersMatchMathPow guards the equality.
func pow15and35(p float64) (p15, p35 float64) {
	s := math.Exp(0.5 * math.Log(p))
	m, e := math.Frexp(p)
	// Square the mantissa once (yi = 3 = 0b11 takes m and m²),
	// renormalising into [0.5, 1) as pow does.
	m2, e2 := m*m, 2*e
	if m2 < .5 {
		m2 += m2
		e2--
	}
	sm := s * m
	return math.Ldexp(sm, e), math.Ldexp(sm*m2, e+e2)
}

// Name implements Formula.
func (PFTKSimplified) Name() string { return "PFTK-simplified" }

// Params implements Formula.
func (f PFTKSimplified) Params() Params { return f.P }

// checkP guards the formula domain. The loss-event rate is nominally in
// (0, 1], but the formulae are well-defined positive decreasing functions
// on all of (0, ∞), and the paper's designed loss processes (continuous
// interval distributions) occasionally produce estimates 1/θ̂ slightly
// above 1; we therefore accept any positive finite argument.
func checkP(p float64) {
	if p <= 0 || math.IsNaN(p) || math.IsInf(p, 0) {
		panic(fmt.Sprintf("formula: loss-event rate %v outside (0, inf)", p))
	}
}

// F1x returns the function x -> f(1/x): the send rate as a function of
// the (estimated) mean loss-event interval in packets, defined for x >= 1.
// This is the left panel of the paper's Figure 1; its concavity/convexity
// is conditions (F2)/(F2c) of Theorem 2.
func F1x(f Formula) numerics.Func {
	return func(x float64) float64 { return f.Rate(1 / x) }
}

// G returns the function g(x) = 1/f(1/x), defined for x >= 1. Its
// convexity is condition (F1) of Theorem 1 and the right panel of
// Figure 1.
func G(f Formula) numerics.Func {
	return func(x float64) float64 { return 1 / f.Rate(1/x) }
}

// Invert returns the loss-event rate p in [lo, hi] at which f attains the
// given rate, found by bisection/Brent on the monotone Rate function.
// It returns an error if rate is outside [f(hi), f(lo)].
func Invert(f Formula, rate, lo, hi float64) (float64, error) {
	if lo <= 0 || hi > 1 || lo >= hi {
		return 0, fmt.Errorf("formula: invalid inversion bracket [%v, %v]", lo, hi)
	}
	return numerics.Brent(func(p float64) float64 { return f.Rate(p) - rate }, lo, hi, 1e-14)
}

// DeviationFromConvexity computes Proposition 4's ratio
// r = sup_x g(x)/g**(x) for g = 1/f(1/x) over the loss-interval range
// [xlo, xhi] sampled at n points, returning the ratio and the x attaining
// it. For PFTK-standard with default parameters the paper reports
// r = 1.0026 attained near x = 3.375.
func DeviationFromConvexity(f Formula, xlo, xhi float64, n int) (ratio, argmax float64) {
	return numerics.DeviationFromConvexity(G(f), numerics.Grid(xlo, xhi, n))
}

// All returns the three formulae of the paper for the given parameters,
// in the order SQRT, PFTK-standard, PFTK-simplified.
func All(p Params) []Formula {
	return []Formula{NewSQRT(p), NewPFTKStandard(p), NewPFTKSimplified(p)}
}
