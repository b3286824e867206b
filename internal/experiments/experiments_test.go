package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/tfrc"
)

// tiny is an even smaller sizing than Quick, for unit tests.
var tiny = Sizing{Events: 6000, SimFactor: 0.08, Pairs: []int{1, 4}, PairsCap: 2}

func TestTableBasics(t *testing.T) {
	t.Parallel()
	tb := &Table{Name: "t", Note: "n", Columns: []string{"a", "b"}}
	tb.AddRow(1, 2)
	tb.AddRow(3, 4)
	var buf bytes.Buffer
	if err := tb.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# t: n") || !strings.Contains(out, "a\tb") ||
		!strings.Contains(out, "3\t4") {
		t.Fatalf("tsv output:\n%s", out)
	}
	col := tb.Column("b")
	if len(col) != 2 || col[0] != 2 || col[1] != 4 {
		t.Fatalf("column = %v", col)
	}
}

func TestTablePanics(t *testing.T) {
	t.Parallel()
	tb := &Table{Name: "t", Columns: []string{"a"}}
	for i, fn := range []func(){
		func() { tb.AddRow(1, 2) },
		func() { tb.Column("zzz") },
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

func TestFig1ShapesMatchPaper(t *testing.T) {
	t.Parallel()
	tb := Fig1()
	if len(tb.Rows) == 0 {
		t.Fatal("empty table")
	}
	// f(1/x) increases with x (rarer loss, higher rate); g decreases.
	fcol := tb.Column("sqrt_f")
	gcol := tb.Column("sqrt_g")
	for i := 1; i < len(fcol); i++ {
		if fcol[i] <= fcol[i-1] {
			t.Fatal("f(1/x) should increase with x")
		}
		if gcol[i] >= gcol[i-1] {
			t.Fatal("g should decrease with x")
		}
	}
	// PFTK curves lie below SQRT (extra timeout term).
	pf := tb.Column("pftkstd_f")
	for i := range pf {
		if pf[i] > fcol[i]+1e-12 {
			t.Fatal("PFTK rate should not exceed SQRT")
		}
	}
}

func TestFig2ReproducesDeviationBound(t *testing.T) {
	t.Parallel()
	tb := Fig2()
	ratios := tb.Column("ratio")
	maxRatio := 0.0
	for _, r := range ratios {
		// The closure is sampled on a 20000-point grid; interpolation at
		// off-grid x carries ~1e-6 relative error.
		if r < 1-1e-5 {
			t.Fatalf("g below its convex closure: %v", r)
		}
		if r > maxRatio {
			maxRatio = r
		}
	}
	if maxRatio < 1.002 || maxRatio > 1.003 {
		t.Fatalf("peak ratio = %v, want ~1.0026", maxRatio)
	}
	sum := Fig2Summary()
	if len(sum.Rows) != 2 {
		t.Fatal("summary should cover b=1 and b=2")
	}
	if r := sum.Rows[0][1]; r < 1.002 || r > 1.003 {
		t.Fatalf("b=1 ratio = %v", r)
	}
	if x := sum.Rows[0][2]; math.Abs(x-3.375) > 0.05 {
		t.Fatalf("b=1 argmax = %v", x)
	}
}

func TestFig3PFTKShape(t *testing.T) {
	t.Parallel()
	tb := Fig3(tfrc.PFTKSimplified, tiny)
	ps := tb.Column("p")
	l8 := tb.Column("L8")
	l1 := tb.Column("L1")
	// Normalized throughput decreases with p for PFTK (throughput drop).
	first, last := l8[0], l8[len(l8)-1]
	if last >= first {
		t.Fatalf("L8 normalized did not drop with p: %v -> %v", first, last)
	}
	// L1 is more conservative than L8 at high p.
	if l1[len(l1)-1] >= l8[len(l8)-1] {
		t.Fatalf("L1 (%v) should be below L8 (%v) at p=%v",
			l1[len(l1)-1], l8[len(l8)-1], ps[len(ps)-1])
	}
	// All conservative.
	for i := range ps {
		if l8[i] > 1.02 {
			t.Fatalf("non-conservative at p=%v: %v", ps[i], l8[i])
		}
	}
}

func TestFig3SQRTFlat(t *testing.T) {
	t.Parallel()
	tb := Fig3(tfrc.SQRT, tiny)
	l4 := tb.Column("L4")
	lo, hi := l4[0], l4[0]
	for _, v := range l4 {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if hi-lo > 0.05 {
		t.Fatalf("SQRT normalized should be ~invariant in p: spread %v", hi-lo)
	}
}

func TestFig3ComprehensiveLessPronounced(t *testing.T) {
	if testing.Short() {
		t.Skip("slow comprehensive Monte Carlo sweep skipped in -short mode")
	}
	t.Parallel()
	basic := Fig3(tfrc.PFTKSimplified, tiny)
	comp := Fig3Comprehensive(tiny)
	// Compare at the shared highest p (0.4): comprehensive is less
	// conservative.
	b := basic.Rows[len(basic.Rows)-1]
	c := comp.Rows[len(comp.Rows)-1]
	if b[0] != c[0] {
		t.Fatalf("p mismatch: %v vs %v", b[0], c[0])
	}
	// Column order: p, L1..L16; compare L8 (index 4).
	if c[4] < b[4] {
		t.Fatalf("comprehensive (%v) below basic (%v)", c[4], b[4])
	}
}

func TestFig4CVShape(t *testing.T) {
	t.Parallel()
	tb := Fig4(0.1, tiny)
	l8 := tb.Column("L8")
	if l8[len(l8)-1] >= l8[0] {
		t.Fatalf("normalized should drop with cv: %v -> %v", l8[0], l8[len(l8)-1])
	}
	if l8[0] < 0.95 {
		t.Fatalf("low-cv normalized = %v, want near 1", l8[0])
	}
}

func TestFig4Panics(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad p")
		}
	}()
	Fig4(0, tiny)
}

func TestFig6Claim2(t *testing.T) {
	t.Parallel()
	tb := runPlan(planFig6, tiny)[0]
	ps := tb.Column("p")
	sqrtN := tb.Column("sqrt_norm")
	pftkN := tb.Column("pftksimp_norm")
	for i, p := range ps {
		if sqrtN[i] > 1.01 {
			t.Fatalf("SQRT audio non-conservative at p=%v: %v", p, sqrtN[i])
		}
	}
	// PFTK at the heaviest loss is non-conservative.
	if pftkN[len(pftkN)-1] <= 1 {
		t.Fatalf("PFTK audio at p=%v should exceed 1: %v",
			ps[len(ps)-1], pftkN[len(pftkN)-1])
	}
	// And conservative at the lightest.
	if pftkN[0] > 1.01 {
		t.Fatalf("PFTK audio at p=%v should be <= 1: %v", ps[0], pftkN[0])
	}
}

func TestRunSimBasics(t *testing.T) {
	t.Parallel()
	pr := NS2Profile().Scale(0.08, 0)
	res := RunSim(pr.Config(2, 8, 99))
	if res.TFRC.Throughput <= 0 || res.TCP.Throughput <= 0 {
		t.Fatalf("starved classes: %+v", res)
	}
	if res.TFRC.Flows != 2 || res.TCP.Flows != 2 {
		t.Fatalf("flow counts: %+v", res)
	}
	if len(res.TCPPerFlow) != 2 || len(res.TFRCPerFlow) != 2 {
		t.Fatal("per-flow stats missing")
	}
	// Aggregate utilization below capacity.
	total := (res.TFRC.Throughput + res.TCP.Throughput) * 2
	if total > pr.Capacity/1000*1.05 {
		t.Fatalf("throughput above capacity: %v", total)
	}
}

func TestRunSimDeterminism(t *testing.T) {
	t.Parallel()
	pr := NS2Profile().Scale(0.05, 0)
	a := RunSim(pr.Config(1, 8, 123))
	b := RunSim(pr.Config(1, 8, 123))
	if a.TFRC.Throughput != b.TFRC.Throughput || a.TCP.LossEventRate != b.TCP.LossEventRate {
		t.Fatal("same seed produced different results")
	}
	c := RunSim(pr.Config(1, 8, 124))
	if a.TFRC.Throughput == c.TFRC.Throughput {
		t.Fatal("different seeds produced identical throughput")
	}
}

func TestRunSimPanics(t *testing.T) {
	t.Parallel()
	pr := NS2Profile()
	cases := []func(){
		func() { RunSim(SimConfig{}) },
		func() {
			cfg := pr.Config(0, 8, 1)
			cfg.NTFRC, cfg.NTCP = 0, 0
			RunSim(cfg)
		},
		func() {
			cfg := pr.Config(1, 8, 1)
			cfg.Queue = DropTail
			cfg.Buffer = 0
			RunSim(cfg)
		},
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

func TestFig7Claim3Ordering(t *testing.T) {
	if testing.Short() {
		t.Skip("slow probe sweep skipped in -short mode")
	}
	t.Parallel()
	tb := runPlan(planFig7, tiny)[0]
	if len(tb.Rows) == 0 {
		t.Fatal("empty fig7")
	}
	// Pool over rows: on average, p_tcp <= p_tfrc <= p_poisson.
	var sumT, sumC, sumP float64
	var n int
	for _, row := range tb.Rows {
		if row[4] <= 0 {
			continue // probe saw no events in a short run
		}
		sumT += row[2]
		sumC += row[3]
		sumP += row[4]
		n++
	}
	if n == 0 {
		t.Skip("no probe events in tiny sizing")
	}
	if !(sumC <= sumT) {
		t.Fatalf("mean p_tcp %v should be <= p_tfrc %v", sumC/float64(n), sumT/float64(n))
	}
}

func TestFig8TFRCNotStarved(t *testing.T) {
	if testing.Short() {
		t.Skip("slow sim sweep skipped in -short mode")
	}
	t.Parallel()
	tb := runPlan(planFig8, tiny)[0]
	for _, row := range tb.Rows {
		if row[2] < 0.2 || row[2] > 5 {
			t.Fatalf("ratio %v out of plausible band (L=%v pairs=%v)", row[2], row[0], row[1])
		}
	}
}

func TestFig9TCPBelowFormulaOnAverage(t *testing.T) {
	t.Parallel()
	tb := runPlan(planFig9, tiny)[0]
	if len(tb.Rows) == 0 {
		t.Fatal("empty fig9")
	}
	below := 0
	for _, row := range tb.Rows {
		if row[2] <= row[1]*1.05 {
			below++
		}
	}
	// The paper: TCP is below the formula except at large throughputs.
	if below < len(tb.Rows)/2 {
		t.Fatalf("only %d of %d TCP flows at/below the formula", below, len(tb.Rows))
	}
}

func TestFig10CovNearZero(t *testing.T) {
	if testing.Short() {
		t.Skip("slow profile sweep skipped in -short mode")
	}
	t.Parallel()
	tb := runPlan(planFig10, tiny)[0]
	if len(tb.Rows) == 0 {
		t.Fatal("empty fig10")
	}
	for _, row := range tb.Rows {
		if math.Abs(row[2]) > 0.25 {
			t.Fatalf("covnorm %v far from zero (profile %v pairs %v)", row[2], row[0], row[1])
		}
	}
}

func TestFig17CompetingRatioAboveOne(t *testing.T) {
	if testing.Short() {
		t.Skip("long DropTail buffer sweep skipped in -short mode")
	}
	t.Parallel()
	// Fig 17 needs enough loss events per point to stabilize the
	// ratio; use a third of the full duration rather than the tiny
	// sizing.
	tb := runPlan(planFig17, Sizing{Events: tiny.Events, SimFactor: 0.35, Pairs: tiny.Pairs})[0]
	if len(tb.Rows) == 0 {
		t.Fatal("empty fig17")
	}
	above := 0
	for _, row := range tb.Rows {
		if row[2] > 1 {
			above++
		}
	}
	if above < len(tb.Rows)-1 {
		t.Fatalf("competing p'/p above 1 in only %d of %d rows", above, len(tb.Rows))
	}
}

func TestBreakdownColumnsSane(t *testing.T) {
	t.Parallel()
	tb := Breakdown("test", []Profile{LabDT100.Scale(0.3, 2)}, tiny)
	if len(tb.Rows) == 0 {
		t.Fatal("empty breakdown")
	}
	for _, row := range tb.Rows {
		for i, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("bad value %v in column %s", v, tb.Columns[i])
			}
		}
	}
}

func TestTableI(t *testing.T) {
	t.Parallel()
	tb := TableI()
	if len(tb.Rows) != 4 {
		t.Fatalf("tableI rows = %d, want 4 WAN profiles", len(tb.Rows))
	}
}

func TestClaim3Table(t *testing.T) {
	t.Parallel()
	tb := Claim3()
	// Row 0 is TCP, rows 1-4 EBRC with growing L, last is Poisson.
	tcpP := tb.Rows[0][2]
	poisson := tb.Rows[len(tb.Rows)-1][2]
	prev := tcpP
	for _, row := range tb.Rows[1 : len(tb.Rows)-1] {
		p := row[2]
		if p < tcpP-1e-12 || p > poisson+1e-12 {
			t.Fatalf("EBRC p=%v outside [%v, %v]", p, tcpP, poisson)
		}
		if p < prev-1e-12 {
			t.Fatal("EBRC p not increasing in L")
		}
		prev = p
	}
}

func TestClaim4Table(t *testing.T) {
	t.Parallel()
	tb := runPlan(planClaim4, Sizing{})[0]
	for _, row := range tb.Rows {
		beta, analyticR, fluidR := row[0], row[1], row[2]
		if analyticR <= 1 {
			t.Fatalf("analytic ratio at beta=%v is %v", beta, analyticR)
		}
		// The fluid effect (peak/mean rate share at overflow) shrinks as
		// 2/(1+β); for gentle back-off (β = 0.75) it is within noise of
		// 1, so only assert the clear cases.
		if beta <= 0.5 && fluidR <= 1 {
			t.Fatalf("fluid ratio at beta=%v is %v", beta, fluidR)
		}
		if beta > 0.5 && fluidR <= 0.9 {
			t.Fatalf("fluid ratio at beta=%v is %v, want near or above 1", beta, fluidR)
		}
		if beta == 0.5 && math.Abs(analyticR-16.0/9) > 1e-9 {
			t.Fatalf("beta=0.5 analytic = %v, want 16/9", analyticR)
		}
	}
}

func TestProfileScale(t *testing.T) {
	t.Parallel()
	pr := LabDT100.Scale(0.5, 3)
	if pr.Duration != 150 || pr.Warmup != 25 {
		t.Fatalf("scaled durations: %v %v", pr.Duration, pr.Warmup)
	}
	if len(pr.Pairs) != 3 {
		t.Fatalf("scaled pairs: %v", pr.Pairs)
	}
	// No-op scale keeps everything.
	same := LabDT100.Scale(1, 0)
	if same.Duration != LabDT100.Duration || len(same.Pairs) != len(LabDT100.Pairs) {
		t.Fatal("no-op scale changed the profile")
	}
}
