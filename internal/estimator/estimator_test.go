package estimator

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/stats"
)

func TestTFRCWeightsL8(t *testing.T) {
	w := TFRCWeights(8)
	// Unnormalized: 1,1,1,1,0.8,0.6,0.4,0.2 summing to 6.
	want := []float64{1, 1, 1, 1, 0.8, 0.6, 0.4, 0.2}
	sum := 6.0
	for i := range w {
		if math.Abs(w[i]-want[i]/sum) > 1e-12 {
			t.Fatalf("w[%d] = %v, want %v", i, w[i], want[i]/sum)
		}
	}
}

func TestWeightsSumToOne(t *testing.T) {
	for _, L := range []int{1, 2, 3, 4, 5, 8, 16, 31} {
		for name, w := range map[string][]float64{
			"tfrc":    TFRCWeights(L),
			"uniform": UniformWeights(L),
			"exp":     ExponentialWeights(L, 0.7),
		} {
			sum := 0.0
			for _, v := range w {
				if v <= 0 {
					t.Fatalf("%s L=%d: non-positive weight", name, L)
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-12 {
				t.Fatalf("%s L=%d: weights sum to %v", name, L, sum)
			}
		}
	}
}

func TestTFRCWeightsNonIncreasing(t *testing.T) {
	for _, L := range []int{2, 4, 8, 16} {
		w := TFRCWeights(L)
		for i := 1; i < len(w); i++ {
			if w[i] > w[i-1]+1e-12 {
				t.Fatalf("L=%d: weights increase at %d: %v", L, i, w)
			}
		}
	}
}

func TestEstimateConstantInput(t *testing.T) {
	e := NewTFRC(8)
	for i := 0; i < 20; i++ {
		e.Observe(5)
	}
	if got := e.Estimate(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("estimate of constant 5 = %v", got)
	}
}

func TestEstimateUnbiasedness(t *testing.T) {
	// Condition (E): E[θ̂] = E[θ] for IID input, because the weights sum
	// to one.
	r := rng.New(4)
	e := NewTFRC(8)
	var acc stats.Welford
	mean := 10.0
	for i := 0; i < 200000; i++ {
		e.Observe(r.ShiftedExp(2, 1/(mean-2)))
		if e.Ready() {
			acc.Add(e.Estimate())
		}
	}
	if math.Abs(acc.Mean()-mean)/mean > 0.01 {
		t.Fatalf("E[estimate] = %v, want %v", acc.Mean(), mean)
	}
}

func TestEstimatorVarianceShrinksWithL(t *testing.T) {
	// Claim 1's lever: larger L smooths the estimator.
	r := rng.New(5)
	variance := func(L int) float64 {
		e := NewTFRC(L)
		var acc stats.Welford
		rr := rng.New(9) // same stream per L
		_ = r
		for i := 0; i < 50000; i++ {
			e.Observe(rr.Exp(0.1))
			if e.Ready() {
				acc.Add(e.Estimate())
			}
		}
		return acc.Variance()
	}
	v2, v8, v16 := variance(2), variance(8), variance(16)
	if !(v16 < v8 && v8 < v2) {
		t.Fatalf("variance not decreasing in L: v2=%v v8=%v v16=%v", v2, v8, v16)
	}
}

func TestPartialWindowRenormalizes(t *testing.T) {
	e := NewTFRC(8)
	e.Observe(4)
	if got := e.Estimate(); math.Abs(got-4) > 1e-12 {
		t.Fatalf("single-sample estimate = %v, want 4", got)
	}
	e.Observe(8)
	// Two samples: weights w1, w2 equal (both 1/6 before renorm), so the
	// estimate is the plain average 6.
	if got := e.Estimate(); math.Abs(got-6) > 1e-12 {
		t.Fatalf("two-sample estimate = %v, want 6", got)
	}
}

func TestHistoryShift(t *testing.T) {
	e := NewTFRC(3)
	for _, v := range []float64{1, 2, 3, 4} {
		e.Observe(v)
	}
	h := e.History()
	if h[0] != 4 || h[1] != 3 || h[2] != 2 {
		t.Fatalf("history = %v", h)
	}
}

func TestEstimateWithOpenOnlyIncreases(t *testing.T) {
	e := NewTFRC(8)
	e.Prime(10)
	base := e.Estimate()
	// A small open interval must not lower the estimate.
	if got := e.EstimateWithOpen(1); got != base {
		t.Fatalf("small open interval changed estimate: %v vs %v", got, base)
	}
	// A huge open interval must raise it.
	if got := e.EstimateWithOpen(1000); got <= base {
		t.Fatalf("large open interval did not raise estimate: %v vs %v", got, base)
	}
}

func TestOpenThresholdBoundary(t *testing.T) {
	e := NewTFRC(8)
	r := rng.New(6)
	for i := 0; i < 20; i++ {
		e.Observe(r.Exp(0.1))
	}
	th := e.OpenThreshold()
	base := e.Estimate()
	// Just below: unchanged. Just above: strictly larger.
	if got := e.EstimateWithOpen(th * 0.999); got != base {
		t.Fatalf("below threshold changed estimate")
	}
	if got := e.EstimateWithOpen(th * 1.001); got <= base {
		t.Fatalf("above threshold did not raise estimate")
	}
}

func TestPrime(t *testing.T) {
	e := NewTFRC(4)
	e.Prime(7)
	if !e.Ready() {
		t.Fatal("primed estimator should be ready")
	}
	if got := e.Estimate(); math.Abs(got-7) > 1e-12 {
		t.Fatalf("primed estimate = %v", got)
	}
}

func TestEmptyEstimator(t *testing.T) {
	e := NewTFRC(8)
	if e.Ready() {
		t.Fatal("fresh estimator should not be ready")
	}
	if e.Estimate() != 0 {
		t.Fatal("fresh estimate should be 0")
	}
	if e.EstimateWithOpen(5) != 0 {
		t.Fatal("fresh open estimate should be 0")
	}
	if e.OpenThreshold() != 0 {
		t.Fatal("fresh threshold should be 0")
	}
}

func TestCustomWeightsNormalized(t *testing.T) {
	e := NewLossIntervalEstimator([]float64{2, 2, 4}) // normalizes to .25 .25 .5
	w := e.Weights()
	if math.Abs(w[0]-0.25) > 1e-12 || math.Abs(w[2]-0.5) > 1e-12 {
		t.Fatalf("weights = %v", w)
	}
	if e.FirstWeight() != w[0] {
		t.Fatalf("first weight = %v, want %v", e.FirstWeight(), w[0])
	}
	if e.Window() != 3 {
		t.Fatalf("window = %d", e.Window())
	}
}

func TestRTTEWMA(t *testing.T) {
	r := NewRTT(0.9)
	if r.Ready() {
		t.Fatal("fresh RTT should not be ready")
	}
	r.Sample(0.1)
	if !r.Ready() || r.Value() != 0.1 {
		t.Fatalf("first sample sets value: %v", r.Value())
	}
	r.Sample(0.2)
	want := 0.9*0.1 + 0.1*0.2
	if math.Abs(r.Value()-want) > 1e-12 {
		t.Fatalf("ewma = %v, want %v", r.Value(), want)
	}
}

func TestRTTConverges(t *testing.T) {
	r := NewRTT(0.9)
	for i := 0; i < 500; i++ {
		r.Sample(0.05)
	}
	if math.Abs(r.Value()-0.05) > 1e-9 {
		t.Fatalf("RTT did not converge: %v", r.Value())
	}
}

func TestPanics(t *testing.T) {
	cases := []func(){
		func() { TFRCWeights(0) },
		func() { UniformWeights(-1) },
		func() { ExponentialWeights(3, 0) },
		func() { ExponentialWeights(3, 1.5) },
		func() { NewLossIntervalEstimator(nil) },
		func() { NewLossIntervalEstimator([]float64{1, 0}) },
		func() { NewTFRC(8).Observe(0) },
		func() { NewTFRC(8).Prime(-1) },
		func() { NewRTT(1) },
		func() { NewRTT(-0.1) },
		func() { NewRTT(0.9).Sample(0) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

// Weights that are not positive and finite, or that overflow their sum,
// are rejected up front by a panic naming the value, instead of turning
// every estimate into NaN.
func TestRejectsNonFiniteWeights(t *testing.T) {
	for _, tc := range []struct {
		weights []float64
		want    string
	}{
		{[]float64{1, math.NaN()}, "weight NaN at 1"},
		{[]float64{math.Inf(1), 1}, "weight +Inf at 0"},
		{[]float64{1, math.Inf(-1)}, "weight -Inf at 1"},
		{[]float64{0, 1}, "weight 0 at 0"},
		{[]float64{1, -2}, "weight -2 at 1"},
		{[]float64{math.MaxFloat64, math.MaxFloat64}, "sum to +Inf"},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "estimator: ") || !strings.Contains(msg, tc.want) {
					t.Errorf("weights %v: panic %q, want one naming %q", tc.weights, msg, tc.want)
				}
			}()
			NewLossIntervalEstimator(tc.weights)
		}()
	}
}

// Property: the estimate always lies between the min and max of the
// history (it is a convex combination).
func TestQuickEstimateConvexCombination(t *testing.T) {
	r := rng.New(42)
	f := func(n uint8, L uint8) bool {
		e := NewTFRC(int(L%16) + 1)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < int(n%32)+1; i++ {
			v := 0.5 + r.Float64()*100
			e.Observe(v)
		}
		for _, v := range e.History() {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		est := e.Estimate()
		return est >= lo-1e-9 && est <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: EstimateWithOpen is monotone non-decreasing in the open
// interval and never below the closed estimate.
func TestQuickOpenMonotone(t *testing.T) {
	r := rng.New(43)
	e := NewTFRC(8)
	for i := 0; i < 30; i++ {
		e.Observe(1 + r.Float64()*20)
	}
	f := func(a, b uint16) bool {
		x, y := float64(a)/100+0.01, float64(b)/100+0.01
		if x > y {
			x, y = y, x
		}
		ex, ey := e.EstimateWithOpen(x), e.EstimateWithOpen(y)
		return ex <= ey+1e-12 && ex >= e.Estimate()-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
