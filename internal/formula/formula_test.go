package formula

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/numerics"
)

func TestConstants(t *testing.T) {
	p := DefaultParams()
	if got, want := p.C1(), math.Sqrt(4.0/3); math.Abs(got-want) > 1e-12 {
		t.Fatalf("c1 = %v, want %v", got, want)
	}
	if got, want := p.C2(), 1.5*math.Sqrt(3); math.Abs(got-want) > 1e-12 {
		t.Fatalf("c2 = %v, want %v", got, want)
	}
	if p.Q != 4*p.R {
		t.Fatalf("default q = %v, want 4r", p.Q)
	}
}

func TestValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Params{R: 0, Q: 1, B: 2}).Validate(); err == nil {
		t.Fatal("expected error for zero RTT")
	}
	if err := (Params{R: 1, Q: -1, B: 2}).Validate(); err == nil {
		t.Fatal("expected error for negative q")
	}
}

func TestSQRTClosedForm(t *testing.T) {
	f := NewSQRT(DefaultParams())
	// f(p) = 1/(c1*sqrt(p)) with r=1; at p=0.01, 1/(1.1547*0.1) ≈ 8.66.
	got := f.Rate(0.01)
	want := 1 / (math.Sqrt(4.0/3) * 0.1)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("SQRT(0.01) = %v, want %v", got, want)
	}
}

func TestFormulaeAgreeForSmallP(t *testing.T) {
	// PFTK-standard == PFTK-simplified for p <= 1/c2^2, and both
	// approach SQRT as p -> 0.
	p := DefaultParams()
	std, simp := NewPFTKStandard(p), NewPFTKSimplified(p)
	threshold := 1 / (p.C2() * p.C2())
	for _, pv := range []float64{1e-6, 1e-4, 1e-3, threshold * 0.99} {
		a, b := std.Rate(pv), simp.Rate(pv)
		if math.Abs(a-b)/a > 1e-12 {
			t.Fatalf("PFTK variants differ at p=%v: %v vs %v", pv, a, b)
		}
	}
	// Above the threshold, simplified is smaller (larger denominator).
	if simp.Rate(0.5) >= std.Rate(0.5) {
		t.Fatalf("simplified %v should be < standard %v at p=0.5",
			simp.Rate(0.5), std.Rate(0.5))
	}
	// SQRT limit for rare losses.
	sq := NewSQRT(p)
	ratio := std.Rate(1e-8) / sq.Rate(1e-8)
	if math.Abs(ratio-1) > 1e-3 {
		t.Fatalf("PFTK/SQRT at tiny p = %v, want ~1", ratio)
	}
}

func TestRateNonIncreasing(t *testing.T) {
	for _, f := range All(DefaultParams()) {
		prev := math.Inf(1)
		for _, p := range numerics.LogGrid(1e-6, 1, 200) {
			r := f.Rate(p)
			if r <= 0 {
				t.Fatalf("%s: non-positive rate at p=%v", f.Name(), p)
			}
			if r > prev+1e-12 {
				t.Fatalf("%s: rate increased at p=%v", f.Name(), p)
			}
			prev = r
		}
	}
}

func TestRatePanicsOutsideDomain(t *testing.T) {
	f := NewSQRT(DefaultParams())
	for _, p := range []float64{0, -0.1, math.Inf(1), math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic at p=%v", p)
				}
			}()
			f.Rate(p)
		}()
	}
}

// Figure 1 (right): convexity of g(x) = 1/f(1/x).
func TestGConvexity(t *testing.T) {
	params := DefaultParams()
	grid := numerics.Grid(1.01, 50, 500)
	// (F1) holds strictly for SQRT and PFTK-simplified.
	if !numerics.IsConvexOnGrid(G(NewSQRT(params)), grid, 1e-9) {
		t.Fatal("g for SQRT should be convex")
	}
	if !numerics.IsConvexOnGrid(G(NewPFTKSimplified(params)), grid, 1e-9) {
		t.Fatal("g for PFTK-simplified should be convex")
	}
	// PFTK-standard is NOT strictly convex (the min term introduces a
	// concave kink at x = c2² = 27b/8 = 6.75 for b = 2), but almost.
	kink := params.C2() * params.C2()
	if numerics.IsConvexOnGrid(G(NewPFTKStandard(params)), numerics.Grid(kink-0.5, kink+0.5, 400), 1e-12) {
		t.Fatal("g for PFTK-standard should fail a strict convexity check at the kink")
	}
}

// Figure 1 (left): concavity/convexity of f(1/x).
func TestF1xShape(t *testing.T) {
	params := DefaultParams()
	// SQRT: f(1/x) = sqrt(x)/(c1 r) is concave everywhere.
	if !numerics.IsConcaveOnGrid(F1x(NewSQRT(params)), numerics.Grid(1.01, 50, 300), 1e-9) {
		t.Fatal("f(1/x) for SQRT should be concave")
	}
	// PFTK: concave for rare losses (large x)...
	if !numerics.IsConcaveOnGrid(F1x(NewPFTKSimplified(params)), numerics.Grid(25, 50, 200), 1e-9) {
		t.Fatal("f(1/x) for PFTK-simplified should be concave for rare losses")
	}
	// ...but convex for heavy losses (small x). This drives Claim 2.
	if !numerics.IsConvexOnGrid(F1x(NewPFTKSimplified(params)), numerics.Grid(1.01, 3, 200), 1e-9) {
		t.Fatal("f(1/x) for PFTK-simplified should be convex for heavy losses")
	}
	if !numerics.IsConvexOnGrid(F1x(NewPFTKStandard(params)), numerics.Grid(1.01, 3, 200), 1e-9) {
		t.Fatal("f(1/x) for PFTK-standard should be convex for heavy losses")
	}
}

// Figure 2: the deviation-from-convexity ratio of PFTK-standard is about
// 1.0026, attained near x = 3.375. The kink of PFTK-standard sits at
// x = c2² = 27b/8, which equals 3.375 exactly for b = 1 — so the paper's
// Figure 2 was computed with b = 1 (see DESIGN.md errata). We reproduce
// the paper's numbers at b = 1 and record the b = 2 equivalent.
func TestFigure2DeviationRatio(t *testing.T) {
	f := NewPFTKStandard(Params{R: 1, Q: 4, B: 1})
	ratio, argmax := DeviationFromConvexity(f, 1.01, 50, 40000)
	if ratio < 1.0020 || ratio > 1.0030 {
		t.Fatalf("deviation ratio = %v, want ~1.0026", ratio)
	}
	if argmax < 3.2 || argmax > 3.5 {
		t.Fatalf("argmax = %v, want ~3.375", argmax)
	}
	// b = 2 moves the kink to x = 6.75 with a similar tiny deviation.
	f2 := NewPFTKStandard(DefaultParams())
	ratio2, argmax2 := DeviationFromConvexity(f2, 1.01, 50, 40000)
	if ratio2 < 1.001 || ratio2 > 1.006 {
		t.Fatalf("b=2 deviation ratio = %v, want ~1.0028", ratio2)
	}
	if argmax2 < 6.5 || argmax2 > 7.0 {
		t.Fatalf("b=2 argmax = %v, want ~6.75", argmax2)
	}
	// SQRT and PFTK-simplified are convex: ratio exactly 1.
	for _, g := range []Formula{NewSQRT(DefaultParams()), NewPFTKSimplified(DefaultParams())} {
		r, _ := DeviationFromConvexity(g, 1.01, 50, 5000)
		if r > 1+1e-9 {
			t.Fatalf("%s deviation = %v, want 1", g.Name(), r)
		}
	}
}

func TestInvert(t *testing.T) {
	for _, f := range All(DefaultParams()) {
		want := 0.0371
		rate := f.Rate(want)
		got, err := Invert(f, rate, 1e-8, 0.999)
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		if math.Abs(got-want)/want > 1e-6 {
			t.Fatalf("%s: inverted p = %v, want %v", f.Name(), got, want)
		}
	}
}

func TestInvertBadBracket(t *testing.T) {
	f := NewSQRT(DefaultParams())
	if _, err := Invert(f, 1, 0.5, 0.1); err == nil {
		t.Fatal("expected error for inverted bracket")
	}
	if _, err := Invert(f, 1e12, 1e-8, 0.999); err == nil {
		t.Fatal("expected error for unattainable rate")
	}
}

func TestRTTScaling(t *testing.T) {
	// SQRT rate scales as 1/r.
	f1 := NewSQRT(ParamsForRTT(0.05))
	f2 := NewSQRT(ParamsForRTT(0.1))
	if got := f1.Rate(0.01) / f2.Rate(0.01); math.Abs(got-2) > 1e-9 {
		t.Fatalf("RTT scaling ratio = %v, want 2", got)
	}
}

func TestAllOrderAndNames(t *testing.T) {
	fs := All(DefaultParams())
	wantNames := []string{"SQRT", "PFTK-standard", "PFTK-simplified"}
	if len(fs) != 3 {
		t.Fatalf("All returned %d formulae", len(fs))
	}
	for i, f := range fs {
		if f.Name() != wantNames[i] {
			t.Fatalf("name[%d] = %s, want %s", i, f.Name(), wantNames[i])
		}
		if f.Params() != DefaultParams() {
			t.Fatalf("%s params not preserved", f.Name())
		}
	}
}

// Property: for every formula and admissible p, f is positive and
// monotone: f(p1) >= f(p2) whenever p1 <= p2.
func TestQuickMonotonicity(t *testing.T) {
	fs := All(DefaultParams())
	check := func(a, b uint16) bool {
		p1 := 1e-6 + float64(a)/65536*0.999
		p2 := 1e-6 + float64(b)/65536*0.999
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		for _, f := range fs {
			r1, r2 := f.Rate(p1), f.Rate(p2)
			if r1 <= 0 || r2 <= 0 || r1 < r2-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: g(x)·f(1/x) == 1 by construction.
func TestQuickGIsReciprocal(t *testing.T) {
	f := NewPFTKStandard(DefaultParams())
	g, fx := G(f), F1x(f)
	check := func(a uint16) bool {
		x := 1.001 + float64(a)/65536*99
		return math.Abs(g(x)*fx(x)-1) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

var rateSink float64

// BenchmarkRate times one Rate call per formula at loss-event rates
// spread over the range the Monte Carlo controls visit.
func BenchmarkRate(b *testing.B) {
	ps := make([]float64, 1024)
	for i := range ps {
		ps[i] = 1 / (1 + 1000*float64(i)/float64(len(ps)))
	}
	pp := DefaultParams()
	for _, c := range []struct {
		name string
		f    Formula
	}{{"SQRT", NewSQRT(pp)}, {"PFTKStandard", NewPFTKStandard(pp)}, {"PFTKSimplified", NewPFTKSimplified(pp)}} {
		f := c.f
		b.Run(c.name, func(b *testing.B) {
			s := 0.0
			for i := 0; i < b.N; i++ {
				s += f.Rate(ps[i%len(ps)])
			}
			rateSink = s
		})
	}
}
