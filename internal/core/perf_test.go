package core

import (
	"math"
	"runtime"
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
// number of allocations at every run length: the per-event samples live
// in pooled buffers, and nothing on the per-interval path allocates.
func TestComprehensiveAllocsFlat(t *testing.T) {
	short := testing.AllocsPerRun(3, func() { RunComprehensive(fig3Config(1000)) })
	long := testing.AllocsPerRun(3, func() { RunComprehensive(fig3Config(4000)) })
	if short != long {
		t.Fatalf("RunComprehensive allocations grow with run length: %v at 1000 events, %v at 4000", short, long)
	}
}

// TestRunBytesFlat requires a run to allocate the same heap bytes at
// every length once the pooled buffers have grown to it: nothing is
// sized by the event count but the buffers, which are reused. The
// slack covers a helper goroutine's descriptor (448 bytes), which the
// runtime allocates when the spawning P has no free one; a per-event
// buffer would differ by 16000 × 8 bytes.
func TestRunBytesFlat(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func(Config) Result
	}{{"basic", RunBasic}, {"comprehensive", RunComprehensive}} {
		c.run(fig3Config(20000))
		short := heapBytes(func() { c.run(fig3Config(4000)) })
		long := heapBytes(func() { c.run(fig3Config(20000)) })
		if d := long - short; d < -4096 || d > 4096 {
			t.Errorf("%s: %d bytes at 4000 events, %d at 20000", c.name, short, long)
		}
	}
}

// heapBytes returns the fewest heap bytes fn allocated over three calls:
// a garbage collection that empties the pool between calls can only add
// bytes.
func heapBytes(fn func()) int64 {
	least := int64(math.MaxInt64)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, int64(after.TotalAlloc-before.TotalAlloc))
	}
	return least
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
