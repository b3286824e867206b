package core

import (
	"testing"

	"repro/internal/estimator"
	"repro/internal/formula"
	"repro/internal/lossmodel"
	"repro/internal/rng"
)

// fig3Config is one Figure 3 job: PFTK-simplified with TFRC weights of
// window L = 8 on a shifted-exponential loss process with p = 0.1.
func fig3Config(events int) Config {
	return Config{
		Formula: formula.NewPFTKSimplified(formula.DefaultParams()),
		Weights: estimator.TFRCWeights(8),
		Process: lossmodel.DesignShiftedExp(0.1, 0.9, rng.New(7)),
		Events:  events,
	}
}

// TestComprehensiveAllocsFlat requires RunComprehensive to make the same
// number of allocations at every run length: the per-run sample slices
// are sized up front, and nothing on the per-interval path allocates.
func TestComprehensiveAllocsFlat(t *testing.T) {
	short := testing.AllocsPerRun(3, func() { RunComprehensive(fig3Config(1000)) })
	long := testing.AllocsPerRun(3, func() { RunComprehensive(fig3Config(4000)) })
	if short != long {
		t.Fatalf("RunComprehensive allocations grow with run length: %v at 1000 events, %v at 4000", short, long)
	}
}

var resultSink Result

// BenchmarkRunBasic times one 4000-event basic control run of a
// Figure 3 job; per-event cost is ns/op divided by 4000 plus warmup.
func BenchmarkRunBasic(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		resultSink = RunBasic(fig3Config(4000))
	}
}

// BenchmarkRunComprehensive times the same job under the comprehensive
// control, which adds a 64-panel quadrature to every interval that
// crosses the open-interval threshold.
func BenchmarkRunComprehensive(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		resultSink = RunComprehensive(fig3Config(4000))
	}
}
