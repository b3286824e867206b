package tfrc

import (
	"math"
	"testing"

	"repro/internal/formula"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/shard"
	"repro/internal/tcp"
)

func paramsForRTT(rtt float64) formula.Params { return formula.ParamsForRTT(rtt) }

// dumbbell is a one-domain network around one bottleneck link: the
// embedded shard is both endpoints' netsim.Network and its scheduler
// theirs.
type dumbbell struct {
	*shard.Shard
	c          *shard.Cluster
	Bottleneck *netsim.Link
}

func newDumbbell(rate, delay float64, q netsim.Queue) dumbbell {
	c := shard.New()
	id := c.Dumbbell(rate, delay, q)
	c.Partition(1)
	return dumbbell{Shard: c.Shard(0), c: c, Bottleneck: c.Link(id)}
}

func buildDumbbell(rate, delay float64, buffer int) dumbbell {
	return newDumbbell(rate, delay, netsim.NewDropTail(buffer))
}

func buildREDDumbbell(rate, delay float64, bdpPkts float64, seed uint64) dumbbell {
	return newDumbbell(rate, delay, netsim.NewRED(netsim.PaperRED(bdpPkts), rate, rng.New(seed)))
}

func TestSingleFlowFillsLink(t *testing.T) {
	net := buildDumbbell(1.25e6, 0.01, 64)
	s := net.Sched()
	snd, rcv := NewFlow(s, net, 1, DefaultConfig(), 0, 0.015)
	snd.Start()
	s.RunUntil(30)
	snd.ResetStats()
	s.RunUntil(230)
	st := snd.Stats()
	if st.Throughput < 800 {
		t.Fatalf("throughput = %v pkts/s, want near capacity 1250", st.Throughput)
	}
	if st.Throughput > 1400 {
		t.Fatalf("throughput = %v pkts/s above capacity", st.Throughput)
	}
	if st.LossEvents == 0 {
		t.Fatal("no loss events")
	}
	if rcv.PacketsReceived == 0 {
		t.Fatal("receiver starved")
	}
}

func TestSlowStartRampsUp(t *testing.T) {
	net := buildDumbbell(1.25e6, 0.01, 500)
	s := net.Sched()
	snd, _ := NewFlow(s, net, 1, DefaultConfig(), 0, 0.015)
	snd.Start()
	initial := snd.Rate()
	s.RunUntil(3)
	if snd.Rate() < 4*initial {
		t.Fatalf("rate %v did not ramp from %v", snd.Rate(), initial)
	}
}

func TestRTTEstimate(t *testing.T) {
	net := buildDumbbell(1.25e6, 0.02, 400)
	s := net.Sched()
	snd, _ := NewFlow(s, net, 1, DefaultConfig(), 0.005, 0.025)
	snd.Start()
	s.RunUntil(5)
	base := net.c.BaseRTT(1)
	if snd.SRTT() < base*0.9 || snd.SRTT() > base+0.4 {
		t.Fatalf("srtt = %v, base = %v", snd.SRTT(), base)
	}
}

func TestPEstimateTracksBernoulliLoss(t *testing.T) {
	// Behind a RED-free DropTail there is no easy fixed p; instead use a
	// lossy middlebox: wrap the deliver hook to drop ~2% of data packets.
	net := buildDumbbell(1.25e7, 0.02, 10000) // no congestion loss
	s := net.Sched()
	cfg := DefaultConfig()
	snd, rcv := NewFlow(s, net, 1, cfg, 0, 0.025)
	// Interpose a Bernoulli dropper on the bottleneck's deliver path.
	inner := net.Bottleneck.Deliver
	r := rng.New(5)
	const dropP = 0.02
	net.Bottleneck.Deliver = func(p *netsim.Packet) {
		if p.Kind == netsim.Data && r.Bernoulli(dropP) {
			return
		}
		inner(p)
	}
	snd.Start()
	s.RunUntil(60)
	snd.ResetStats()
	s.RunUntil(360)
	st := snd.Stats()
	if st.LossEvents < 50 {
		t.Fatalf("loss events = %d, want many", st.LossEvents)
	}
	// With random loss, the loss-EVENT rate is below the packet loss
	// probability (several drops can share an RTT) but same order.
	if st.LossEventRate <= dropP/10 || st.LossEventRate > dropP*1.5 {
		t.Fatalf("loss-event rate = %v for drop prob %v", st.LossEventRate, dropP)
	}
	if st.PEstimate <= 0 {
		t.Fatal("p estimate = 0 after losses")
	}
	// The estimate and the measured event rate agree to a factor ~2.
	ratio := st.PEstimate / st.LossEventRate
	if ratio < 0.4 || ratio > 2.5 {
		t.Fatalf("p estimate %v vs measured %v (ratio %v)", st.PEstimate, st.LossEventRate, ratio)
	}
	if rcv.LossEventRateEstimate() != st.PEstimate {
		t.Fatal("stats PEstimate diverges from receiver")
	}
}

func TestThroughputMatchesFormulaUnderRandomLoss(t *testing.T) {
	// With a fixed Bernoulli drop probability and no queueing, TFRC's
	// long-run rate should be near f(p, rtt) evaluated at its own
	// measured p — i.e. roughly conservative (Claim 1 regime).
	net := buildDumbbell(1.25e8, 0.04, 100000)
	s := net.Sched()
	cfg := DefaultConfig()
	snd, _ := NewFlow(s, net, 1, cfg, 0, 0.045)
	inner := net.Bottleneck.Deliver
	r := rng.New(9)
	net.Bottleneck.Deliver = func(p *netsim.Packet) {
		if p.Kind == netsim.Data && r.Bernoulli(0.01) {
			return
		}
		inner(p)
	}
	snd.Start()
	s.RunUntil(100)
	snd.ResetStats()
	s.RunUntil(700)
	st := snd.Stats()
	if st.LossEvents < 100 {
		t.Fatalf("too few loss events: %d", st.LossEvents)
	}
	// Evaluate PFTK-standard at the measured (p, rtt).
	f := PFTKStandard.build(paramsForRTT(st.MeanRTT))
	p := 1 / meanOf(st.LossIntervals)
	predicted := f.Rate(p)
	normalized := st.Throughput / predicted
	if normalized < 0.5 || normalized > 1.2 {
		t.Fatalf("normalized throughput = %v (x=%v, f=%v, p=%v)",
			normalized, st.Throughput, predicted, p)
	}
}

func TestTFRCSharesWithTCP(t *testing.T) {
	// One TFRC and one TCP on a RED bottleneck: neither starves, and
	// their throughput ratio is within the broad band the paper reports.
	rate := 1.25e6
	rtt := 0.05
	bdp := rate / 1000 * rtt
	net := buildREDDumbbell(rate, 0.01, bdp, 77)
	s := net.Sched()
	net.c.SetReverseJitter(0.2, 13)
	tsnd, _ := NewFlow(s, net, 1, DefaultConfig(), 0, 0.015)
	csnd, _ := tcp.NewFlow(s, net, 2, tcp.DefaultConfig(), 0, 0.015)
	tsnd.Start()
	s.At(0.21, csnd.Start)
	s.RunUntil(50)
	tsnd.ResetStats()
	csnd.ResetStats()
	s.RunUntil(550)
	xt := tsnd.Stats().Throughput
	xc := csnd.Stats().Throughput
	if xt <= 50 || xc <= 50 {
		t.Fatalf("starvation: tfrc %v, tcp %v", xt, xc)
	}
	ratio := xt / xc
	if ratio < 0.3 || ratio > 3.5 {
		t.Fatalf("tfrc/tcp ratio = %v, want within [0.3, 3.5]", ratio)
	}
}

func TestClaim4LossEventRateOrdering(t *testing.T) {
	// Figure 17 (right): competing over DropTail, TCP sees a larger
	// loss-event rate than TFRC. Reverse-path jitter models real ACK
	// timing noise; without it the deterministic ack clock slots TCP
	// arrivals into queue vacancies with unphysical precision (see
	// DESIGN.md).
	net := buildDumbbell(1.25e6, 0.01, 80)
	s := net.Sched()
	net.c.SetReverseJitter(0.2, 7)
	tsnd, _ := NewFlow(s, net, 1, DefaultConfig(), 0, 0.015)
	csnd, _ := tcp.NewFlow(s, net, 2, tcp.DefaultConfig(), 0, 0.015)
	tsnd.Start()
	s.At(0.33, csnd.Start)
	s.RunUntil(50)
	tsnd.ResetStats()
	csnd.ResetStats()
	s.RunUntil(650)
	pt := tsnd.Stats().LossEventRate
	pc := csnd.Stats().LossEventRate
	if pt <= 0 || pc <= 0 {
		t.Fatalf("degenerate loss rates: tfrc %v, tcp %v", pt, pc)
	}
	if pc <= pt {
		t.Fatalf("TCP loss-event rate %v should exceed TFRC's %v", pc, pt)
	}
}

func TestComprehensiveToggle(t *testing.T) {
	// The comprehensive element raises the p estimate's responsiveness
	// to long loss-free periods: with it on, the estimate decays during
	// the open interval; with it off, it is frozen between events.
	run := func(comprehensive bool) float64 {
		net := buildDumbbell(1.25e7, 0.02, 10000)
		s := net.Sched()
		cfg := DefaultConfig()
		cfg.Comprehensive = comprehensive
		snd, _ := NewFlow(s, net, 1, cfg, 0, 0.025)
		inner := net.Bottleneck.Deliver
		r := rng.New(31)
		net.Bottleneck.Deliver = func(p *netsim.Packet) {
			if p.Kind == netsim.Data && r.Bernoulli(0.005) {
				return
			}
			inner(p)
		}
		snd.Start()
		s.RunUntil(60)
		snd.ResetStats()
		s.RunUntil(360)
		return snd.Stats().Throughput
	}
	on := run(true)
	off := run(false)
	// Proposition 2 at the protocol level: comprehensive >= basic
	// (within simulation noise).
	if on < off*0.9 {
		t.Fatalf("comprehensive %v well below basic %v", on, off)
	}
}

func TestNoFeedbackTimerHalvesRate(t *testing.T) {
	net := buildDumbbell(1.25e6, 0.01, 64)
	s := net.Sched()
	snd, _ := NewFlow(s, net, 1, DefaultConfig(), 0, 0.015)
	snd.Start()
	s.RunUntil(5)
	rateBefore := snd.Rate()
	// Sever the reverse path: feedback stops arriving.
	net.Bottleneck.Deliver = func(p *netsim.Packet) {}
	s.RunUntil(30)
	if snd.Rate() >= rateBefore/2 {
		t.Fatalf("rate %v did not halve from %v without feedback", snd.Rate(), rateBefore)
	}
}

// blackholeNet drops every reverse-path packet: the severed-feedback
// extreme of a routed congested reverse path.
type blackholeNet struct{ dumbbell }

func (b blackholeNet) SendReverse(p *netsim.Packet) { b.PutPacket(p) }

// Table-driven check of the no-feedback halving schedule (RFC 3448
// §4.4): with every receiver report lost, the rate halves once per
// no-feedback interval — 2 s while no RTT sample exists — down to the
// floor of one segment per 8 seconds, and the sender counts each
// expiration.
func TestNoFeedbackHalvingSchedule(t *testing.T) {
	cfg := DefaultConfig() // InitialRate 2000 B/s, SegSize 1000
	floor := float64(cfg.SegSize) / 8
	cases := []struct {
		intervals int
		wantRate  float64
	}{
		{1, 1000},
		{2, 500},
		{3, 250},
		{4, floor}, // 125 = the floor exactly
		{6, floor}, // pinned at the floor, halvings keep counting
	}
	for _, tc := range cases {
		net := blackholeNet{buildDumbbell(1.25e6, 0.01, 64)}
		s := net.Sched()
		snd, _ := NewFlow(s, net, 1, cfg, 0, 0.015)
		snd.Start()
		// Expirations land at exactly 2, 4, 6, ... seconds; sample just
		// after the tc.intervals-th one.
		s.RunUntil(2*float64(tc.intervals) + 0.5)
		if got := snd.Rate(); math.Abs(got-tc.wantRate) > 1e-9 {
			t.Errorf("after %d lost intervals: rate = %v, want %v",
				tc.intervals, got, tc.wantRate)
		}
		st := snd.Stats()
		if st.NoFeedbackHalvings != int64(tc.intervals) {
			t.Errorf("after %d lost intervals: halvings = %d", tc.intervals, st.NoFeedbackHalvings)
		}
		if st.FeedbackReceived != 0 {
			t.Errorf("blackholed reverse path delivered %d reports", st.FeedbackReceived)
		}
	}
}

// Feedback that resumes after a silent stretch restarts the control
// loop: the sender leaves the floor and the stats count the report.
func TestNoFeedbackRecovery(t *testing.T) {
	d := buildDumbbell(1.25e6, 0.01, 64)
	s := d.Sched()
	snd, _ := NewFlow(s, blackholeNet{d}, 1, DefaultConfig(), 0, 0.015)
	snd.Start()
	s.RunUntil(9)
	if snd.Stats().NoFeedbackHalvings < 4 {
		t.Fatalf("halvings = %d before recovery", snd.Stats().NoFeedbackHalvings)
	}
	starved := snd.Rate()
	// Hand-deliver one report, as if the reverse path healed.
	snd.Receive(&netsim.Packet{Kind: netsim.Feedback, RecvRate: 5e4, Echo: 8.9})
	if snd.Rate() <= starved {
		t.Fatalf("rate %v did not recover from %v after feedback resumed", snd.Rate(), starved)
	}
	if snd.Stats().FeedbackReceived != 1 {
		t.Fatalf("feedback count = %d", snd.Stats().FeedbackReceived)
	}
}

func TestStatsWindowing(t *testing.T) {
	net := buildDumbbell(1.25e6, 0.01, 64)
	s := net.Sched()
	snd, _ := NewFlow(s, net, 1, DefaultConfig(), 0, 0.015)
	snd.Start()
	s.RunUntil(20)
	snd.ResetStats()
	st := snd.Stats()
	if st.PacketsSent != 0 || st.LossEvents != 0 {
		t.Fatalf("stats not reset: %+v", st)
	}
	s.RunUntil(40)
	st = snd.Stats()
	if st.PacketsSent == 0 || math.Abs(st.Duration-20) > 1e-9 {
		t.Fatalf("window stats: %+v", st)
	}
}

func TestSenderIgnoresNonFeedback(t *testing.T) {
	net := buildDumbbell(1e6, 0, 10)
	s := net.Sched()
	snd, rcv := NewFlow(s, net, 1, DefaultConfig(), 0, 0)
	before := snd.Rate()
	snd.Receive(&netsim.Packet{Kind: netsim.Data})
	if snd.Rate() != before {
		t.Fatal("sender processed a data packet")
	}
	rcv.Receive(&netsim.Packet{Kind: netsim.Ack})
	if rcv.PacketsReceived != 0 {
		t.Fatal("receiver counted a non-data packet")
	}
}

func TestPanics(t *testing.T) {
	net := buildDumbbell(1e6, 0, 10)
	s := net.Sched()
	cases := []func(){
		func() { NewFlow(nil, net, 1, DefaultConfig(), 0, 0) },
		func() { NewFlow(s, nil, 1, DefaultConfig(), 0, 0) },
		func() { NewFlow(s, net, 1, Config{}, 0, 0) },
		func() {
			snd, _ := NewFlow(s, net, 2, DefaultConfig(), 0, 0)
			snd.Start()
			snd.Start()
		},
		func() { FormulaKind(99).build(paramsForRTT(0.1)) },
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

func meanOf(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
