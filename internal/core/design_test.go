package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/formula"
	"repro/internal/numerics"
)

func TestAnalyzeSQRT(t *testing.T) {
	t.Parallel()
	rep := AnalyzeFormula(formula.NewSQRT(formula.DefaultParams()), 1.01, 100, 2000)
	if !rep.GConvexEverywhere {
		t.Fatal("SQRT: g should be convex everywhere")
	}
	if rep.Prop4Ratio > 1+1e-9 {
		t.Fatalf("SQRT Prop4 ratio = %v, want 1", rep.Prop4Ratio)
	}
	// f(1/x) = sqrt(x)/c1r is concave from the left edge on.
	if rep.ConcaveAbove > 1.2 {
		t.Fatalf("SQRT concave-above = %v, want near range start", rep.ConcaveAbove)
	}
	if rep.ConvexBelow != 0 {
		t.Fatalf("SQRT should have no convex region, got %v", rep.ConvexBelow)
	}
}

func TestAnalyzePFTKSimplified(t *testing.T) {
	if testing.Short() {
		t.Skip("4000-point formula analysis skipped in -short mode")
	}
	t.Parallel()
	rep := AnalyzeFormula(formula.NewPFTKSimplified(formula.DefaultParams()), 1.01, 100, 4000)
	if !rep.GConvexEverywhere {
		t.Fatal("PFTK-simplified: g should be convex")
	}
	// Heavy-loss convex region exists and sits below the concave region.
	if rep.ConvexBelow <= 1.01 {
		t.Fatalf("PFTK-simplified should have a convex heavy-loss region, got %v", rep.ConvexBelow)
	}
	// Both thresholds bracket the single inflection of f(1/x); with the
	// grid tolerance they may overlap slightly, but must agree to ~1%.
	if math.Abs(rep.ConcaveAbove-rep.ConvexBelow)/rep.ConvexBelow > 0.02 {
		t.Fatalf("inflection estimates disagree: concave above %v, convex below %v",
			rep.ConcaveAbove, rep.ConvexBelow)
	}
	// The Claim 2 non-conservative regime is heavy loss: p above
	// 1/ConvexBelow should include p = 0.25 (Figure 6's regime).
	if 1/rep.ConvexBelow > 0.25 {
		t.Fatalf("convex region should cover p=0.25: threshold %v", 1/rep.ConvexBelow)
	}
}

func TestAnalyzePFTKStandardProp4(t *testing.T) {
	if testing.Short() {
		t.Skip("40000-point formula analysis skipped in -short mode")
	}
	t.Parallel()
	rep := AnalyzeFormula(formula.NewPFTKStandard(formula.Params{R: 1, Q: 4, B: 1}), 1.01, 50, 40000)
	if rep.GConvexEverywhere {
		t.Fatal("PFTK-standard has a kink; strict convexity must fail")
	}
	if rep.Prop4Ratio < 1.002 || rep.Prop4Ratio > 1.003 {
		t.Fatalf("Prop4 ratio = %v, want ~1.0026", rep.Prop4Ratio)
	}
	if math.Abs(rep.Prop4ArgMax-3.375) > 0.05 {
		t.Fatalf("Prop4 argmax = %v, want ~3.375", rep.Prop4ArgMax)
	}
}

func TestReportString(t *testing.T) {
	t.Parallel()
	rep := AnalyzeFormula(formula.NewPFTKSimplified(formula.DefaultParams()), 1.01, 100, 2000)
	s := rep.String()
	for _, want := range []string{"PFTK-simplified", "(F1)", "Prop 4", "(F2c)"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report missing %q:\n%s", want, s)
		}
	}
}

func TestAnalyzePanics(t *testing.T) {
	t.Parallel()
	f := formula.NewSQRT(formula.DefaultParams())
	for i, fn := range []func(){
		func() { AnalyzeFormula(f, 0, 10, 100) },
		func() { AnalyzeFormula(f, 10, 5, 100) },
		func() { AnalyzeFormula(f, 1, 10, 4) },
	} {
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

// shapeThresholdsByScans is AnalyzeFormula's former quadratic search,
// kept as the reference for its single pass: the smallest grid point
// above which f(1/x) is concave and the largest below which it is
// strictly convex, each found by re-checking a whole grid suffix or
// prefix per candidate.
func shapeThresholdsByScans(f formula.Formula, grid []float64, rangeHi float64) (concaveAbove, convexBelow float64) {
	fx := formula.F1x(f)
	concaveAbove = rangeHi
	for i := 0; i+16 < len(grid); i++ {
		if numerics.IsConcaveOnGrid(fx, grid[i:], 1e-9) {
			concaveAbove = grid[i]
			break
		}
	}
	for i := len(grid) - 1; i >= 16; i-- {
		if numerics.IsConvexOnGrid(fx, grid[:i+1], 1e-9) {
			convexBelow = grid[i]
			break
		}
	}
	return concaveAbove, convexBelow
}

// TestAnalyzeShapeMatchesScans checks AnalyzeFormula's thresholds
// against the reference scans, bit for bit, for the three formulae
// under several path parameters, on ranges that put the inflection of
// f(1/x) inside, near either end of and outside the grid.
func TestAnalyzeShapeMatchesScans(t *testing.T) {
	t.Parallel()
	check := func(f formula.Formula, lo, hi float64, n int) {
		rep := AnalyzeFormula(f, lo, hi, n)
		above, below := shapeThresholdsByScans(f, numerics.Grid(lo, hi, n), hi)
		if rep.ConcaveAbove != above || rep.ConvexBelow != below {
			t.Errorf("%s %+v on [%v, %v], n=%d: concave above %v, convex below %v; scans give %v, %v",
				f.Name(), f.Params(), lo, hi, n, rep.ConcaveAbove, rep.ConvexBelow, above, below)
		}
	}
	ranges := [][2]float64{{1.01, 100}, {1.01, 4}, {3, 100}, {1.01, 2}, {20, 1000}}
	for _, pp := range []formula.Params{formula.DefaultParams(), formula.ParamsForRTT(0.1), {R: 1, Q: 4, B: 1}} {
		for _, f := range formula.All(pp) {
			for _, r := range ranges {
				for _, n := range []int{16, 17, 18, 33, 100, 300} {
					check(f, r[0], r[1], n)
				}
			}
			check(f, 1.01, 100, 2000)
		}
	}
}
