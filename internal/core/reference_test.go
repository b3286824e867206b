package core

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/estimator"
	"repro/internal/formula"
	"repro/internal/lossmodel"
	"repro/internal/rng"
	"repro/internal/stats"
)

// runReference is run as one sequential loop, the shape it had before
// the trace, evaluation and fold were split: every event, warmup
// included, computes its rate and duration next to the estimator
// update, and the statistics come from the stats package over per-run
// sample slices.
func runReference(cfg Config, dm durationModel) Result {
	est := estimator.NewLossIntervalEstimator(cfg.Weights)
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
		st := estState{hat: hat, thetaStar: est.OpenThreshold(), w1: est.FirstWeight()}
		s := dm.interval(cfg.Formula, st, theta, rate)
		vol := theta
		if dm.byteRate() {
			vol = rate * s
		}
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

// sameBits reports the first field in which a and b differ, comparing
// floats by their bit patterns, or "" if none does.
func sameBits(a, b Result) string {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		var eq bool
		switch fa.Kind() {
		case reflect.Float64:
			eq = math.Float64bits(fa.Float()) == math.Float64bits(fb.Float())
		default:
			eq = fa.Interface() == fb.Interface()
		}
		if !eq {
			return fmt.Sprintf("%s: %v vs %v", va.Type().Field(i).Name, fa.Interface(), fb.Interface())
		}
	}
	return ""
}

// controls are the three public controls with the duration model each
// one hands to run.
var controls = []struct {
	name    string
	run     func(Config) Result
	dm      func(Config) durationModel
	coupled bool
}{
	{"basic", RunBasic, func(Config) durationModel { return basicDuration{} }, true},
	{"comprehensive", RunComprehensive, func(c Config) durationModel {
		return comprehensiveDuration{panels: c.IntegrationPanels}
	}, true},
	{"audio", func(c Config) Result { return RunFixedPacketRate(c, 0.02) },
		func(Config) durationModel { return audioDuration{spacing: 0.02} }, false},
}

// withProcs runs fn with GOMAXPROCS set to procs.
func withProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

// The split run must equal the sequential loop bit for bit in every
// Result field, for every control and formula, on one CPU and on two,
// at run lengths on both sides of the split threshold.
func TestRunMatchesSequentialReference(t *testing.T) {
	params := formula.DefaultParams()
	counts := []int{1, minChunk - 1, minChunk, minChunk + 1, 2*minChunk + 1, 20000}
	for _, c := range controls {
		for _, f := range formula.All(params) {
			for _, L := range []int{1, 8, 16} {
				for _, events := range counts {
					cfg := func() Config {
						return basicCfg(f, L, lossmodel.DesignShiftedExp(0.2, 0.9, rng.New(uint64(31*L+events))), events)
					}
					ref := cfg()
					ref.validate()
					want := runReference(ref, c.dm(ref))
					want.RateCoupled = c.coupled
					for _, procs := range []int{1, 2} {
						var got Result
						withProcs(procs, func() { got = c.run(cfg()) })
						if d := sameBits(got, want); d != "" {
							t.Errorf("%s %s L=%d events=%d GOMAXPROCS=%d: %s",
								c.name, f.Name(), L, events, procs, d)
						}
					}
				}
			}
		}
	}
}

// The evaluation writes every event's slots whatever the split: pooled
// buffers hold the previous run's values, which a skipped slot would
// pass on silently, so here they start as NaN.
func TestEvaluateWritesEverySlot(t *testing.T) {
	f := formula.NewPFTKSimplified(formula.DefaultParams())
	for _, events := range []int{1, minChunk + 1, 4*minChunk - 1, 20000} {
		cfg := basicCfg(f, 8, lossmodel.DesignShiftedExp(0.2, 0.9, rng.New(3)), events)
		cfg.validate()
		for _, procs := range []int{1, 2, 3} {
			b := new(runBuffers)
			b.trace(cfg, true)
			b.rate, b.dur = make([]float64, events), make([]float64, events)
			for i := range b.rate {
				b.rate[i], b.dur[i] = math.NaN(), math.NaN()
			}
			withProcs(procs, func() { b.evaluate(f, comprehensiveDuration{panels: 64}) })
			for i := range b.rate {
				if math.IsNaN(b.rate[i]) || math.IsNaN(b.dur[i]) {
					t.Fatalf("events=%d GOMAXPROCS=%d: event %d not evaluated", events, procs, i)
				}
			}
		}
	}
}

// panicAbove is SQRT with a domain cut: Rate panics, naming the
// estimate, once 1/p reaches limit.
type panicAbove struct {
	formula.SQRT
	limit float64
}

func (f panicAbove) Rate(p float64) float64 {
	if 1/p >= f.limit {
		panic(fmt.Sprintf("estimate %v at the limit", 1/p))
	}
	return f.SQRT.Rate(p)
}

// A panic inside the evaluation reaches the caller's goroutine, where
// the runner recovers it, and on two CPUs it is the panic of the first
// failing event, as on one.
func TestRunPanicReachesCaller(t *testing.T) {
	const events, seed = 8 * minChunk, 5
	proc := func() lossmodel.Process { return lossmodel.DesignShiftedExp(0.2, 0.9, rng.New(seed)) }
	// The limit is the largest estimate of the run's second half.
	ref := basicCfg(formula.NewSQRT(formula.DefaultParams()), 8, proc(), events)
	ref.validate()
	b := new(runBuffers)
	b.trace(ref, false)
	limit := 0.0
	for _, h := range b.hat[events/2:] {
		limit = max(limit, h)
	}
	f := panicAbove{SQRT: formula.NewSQRT(formula.DefaultParams()), limit: limit}
	caught := func(procs int) (msg any) {
		defer func() { msg = recover() }()
		withProcs(procs, func() { RunBasic(basicCfg(f, 8, proc(), events)) })
		return nil
	}
	one, two := caught(1), caught(2)
	if one == nil || one != two {
		t.Fatalf("panic on one CPU %v, on two %v; want the same non-nil panic", one, two)
	}
}
