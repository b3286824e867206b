package arrivals

import (
	"math"
	"testing"

	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/shard"
	"repro/internal/tcp"
	"repro/internal/tfrc"
	"repro/internal/topology"
)

// testNet builds a one-link network partitioned into k domains (the
// link has a positive delay, so k = 2 splits sender from receiver) and
// returns it with its route.
func testNet(k int) (*shard.Cluster, []topology.LinkID) {
	c := shard.New()
	a := c.AddNode("a")
	b := c.AddNode("b")
	link := c.AddLink(a, b, 1.25e6, 0.01, netsim.NewDropTail(64))
	c.Partition(k)
	return c, []topology.LinkID{link}
}

func tfrcSpec(seed uint64) Spec {
	return Spec{
		Name: "t", Proto: TFRC,
		Gap:  Gap{Kind: Poisson, Rate: 40},
		Size: Size{Kind: Fixed, Packets: 20},
		Stop: 30, MaxArrivals: 2000, Seed: seed,
	}
}

func baseTFRC() tfrc.Config {
	cfg := tfrc.DefaultConfig()
	cfg.IdleStop = 2
	return cfg
}

func runEngine(t *testing.T, c *shard.Cluster, route []topology.LinkID, specs []Spec, end float64) (*Engine, []ClassResult) {
	t.Helper()
	classes := make([]Class, len(specs))
	for i, sp := range specs {
		cl := Class{Spec: sp, FwdHops: route, FwdExtra: 0.005, RevDelay: 0.025}
		switch sp.Proto {
		case TFRC:
			cl.TFRC = baseTFRC()
		case TCP:
			cl.TCP = tcp.DefaultConfig()
		case CBR:
			cl.CBRSize = 1000
			cl.CBRRTT = 0.06
		}
		classes[i] = cl
		c.DeclareReverseChannel(cl.FwdHops, cl.RevDelay)
	}
	eng := NewEngine(c, 0, classes)
	lo, count := eng.FlowRange()
	c.ReserveFlows(lo + count)
	eng.Arm()
	c.Run(end)
	return eng, eng.Results(end)
}

func TestFlowSeedDeterministicAndDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		s := FlowSeed(42, i)
		if s != FlowSeed(42, i) {
			t.Fatal("FlowSeed not deterministic")
		}
		if seen[s] {
			t.Fatalf("FlowSeed collision at i=%d", i)
		}
		seen[s] = true
	}
	if FlowSeed(1, 0) == FlowSeed(2, 0) {
		t.Fatal("FlowSeed ignores the class seed")
	}
}

func TestGapDraws(t *testing.T) {
	r := rng.New(7)
	n := 20000
	sum := 0.0
	g := Gap{Kind: Poisson, Rate: 50}
	for i := 0; i < n; i++ {
		d := g.draw(r)
		if d < 0 {
			t.Fatal("negative gap")
		}
		sum += d
	}
	if mean := sum / float64(n); math.Abs(mean-0.02) > 0.002 {
		t.Fatalf("Poisson mean gap = %v, want ~0.02", mean)
	}
	w := Gap{Kind: Weibull, Shape: 0.6, Scale: 0.02}
	for i := 0; i < 1000; i++ {
		if d := w.draw(r); d < 0 {
			t.Fatal("negative Weibull gap")
		}
	}
}

func TestSizeDraws(t *testing.T) {
	r := rng.New(7)
	f := Size{Kind: Fixed, Packets: 9}
	if f.draw(r) != 9 {
		t.Fatal("fixed size not fixed")
	}
	p := Size{Kind: Pareto, Shape: 1.2, MinPackets: 4, CapPackets: 50}
	for i := 0; i < 5000; i++ {
		n := p.draw(r)
		if n < 4 || n > 50 {
			t.Fatalf("Pareto draw %d outside [4, 50]", n)
		}
	}
}

func TestValidationPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"nil host", func() { NewEngine(nil, 0, []Class{{Spec: tfrcSpec(1)}}) }},
		{"negative first flow", func() {
			c, _ := testNet(1)
			NewEngine(c, -1, []Class{{Spec: tfrcSpec(1)}})
		}},
		{"no classes", func() {
			c, _ := testNet(1)
			NewEngine(c, 0, nil)
		}},
		{"no name", func() {
			sp := tfrcSpec(1)
			sp.Name = ""
			sp.validate()
		}},
		{"no arrivals", func() {
			sp := tfrcSpec(1)
			sp.MaxArrivals = 0
			sp.validate()
		}},
		{"bad window", func() {
			sp := tfrcSpec(1)
			sp.Stop = 0
			sp.validate()
		}},
		{"bad poisson", func() { Gap{Kind: Poisson}.validate() }},
		{"bad weibull", func() { Gap{Kind: Weibull, Shape: 1}.validate() }},
		{"bad gap kind", func() { Gap{Kind: GapKind(9), Rate: 1}.validate() }},
		{"bad fixed size", func() { Size{Kind: Fixed}.validate() }},
		{"bad pareto", func() { Size{Kind: Pareto, Shape: 1}.validate() }},
		{"cap below min", func() {
			Size{Kind: Pareto, Shape: 1, MinPackets: 8, CapPackets: 4}.validate()
		}},
		{"bad size kind", func() { Size{Kind: SizeKind(9), Packets: 1}.validate() }},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", c.name)
				}
			}()
			c.fn()
		}()
	}
}

func TestEngineClassValidation(t *testing.T) {
	host, route := testNet(1)
	expectPanic := func(name string, cl Class) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		NewEngine(host, 0, []Class{cl})
	}
	expectPanic("no route", Class{Spec: tfrcSpec(1)})
	expectPanic("negative delay", Class{Spec: tfrcSpec(1), FwdHops: route, FwdExtra: -1})
	expectPanic("tfrc without idlestop", Class{Spec: tfrcSpec(1), FwdHops: route})
	cbr := tfrcSpec(1)
	cbr.Proto = CBR
	expectPanic("cbr without rate", Class{Spec: cbr, FwdHops: route})
	bad := tfrcSpec(1)
	bad.Proto = Proto(9)
	expectPanic("unknown proto", Class{Spec: bad, FwdHops: route})
}

func TestProtoString(t *testing.T) {
	if TFRC.String() != "tfrc" || TCP.String() != "tcp" || CBR.String() != "cbr" || Proto(9).String() != "?" {
		t.Fatal("Proto.String labels wrong")
	}
}

// A one-domain partition must complete transfers, detach quiet flows
// and recycle their endpoints: constructions bounded by the concurrency
// peak, far below the arrival count, with the freelist invariant intact
// and every recycled pair provably dead (no live timers).
func TestServeReclaimRecycle(t *testing.T) {
	protos := []struct {
		name string
		mut  func(*Spec)
	}{
		{"tfrc", func(sp *Spec) { sp.Proto = TFRC }},
		{"tcp", func(sp *Spec) { sp.Proto = TCP }},
		{"cbr", func(sp *Spec) {
			sp.Proto = CBR
			sp.CBRRate = 200
			sp.Size = Size{Kind: Fixed, Packets: 5}
		}},
	}
	for _, pc := range protos {
		t.Run(pc.name, func(t *testing.T) {
			net, route := testNet(1)
			sp := tfrcSpec(11)
			pc.mut(&sp)
			eng, res := runEngine(t, net, route, []Spec{sp}, 40)
			r := res[0]
			if r.Arrivals < 100 {
				t.Fatalf("only %d arrivals", r.Arrivals)
			}
			if r.Completions == 0 {
				t.Fatal("no completions")
			}
			if r.Reclaimed == 0 {
				t.Fatal("no flows reclaimed on the one-domain partition")
			}
			if r.Constructions >= r.Arrivals/2 {
				t.Fatalf("pool not reused: %d constructions for %d arrivals",
					r.Constructions, r.Arrivals)
			}
			if r.Constructions < int64(r.Peak) {
				t.Fatalf("constructions %d below peak population %d",
					r.Constructions, r.Peak)
			}
			if err := net.CheckLeaks(); err != nil {
				t.Fatalf("freelist invariant broken after churn: %v", err)
			}
			cs := eng.classes[0]
			// Every reclaimed flow: detached (InFlight accounting zeroed)
			// and its pooled endpoints hold no live timers.
			for i := 0; i < cs.next; i++ {
				if cs.slots[i].reclaimed && net.InFlight(cs.firstFlow+i) != 0 {
					t.Fatalf("reclaimed flow %d still has packets in flight", cs.firstFlow+i)
				}
			}
			for _, p := range cs.tfrcPool {
				if !p.snd.Quiesced() || !p.rcv.Idle() {
					t.Fatal("pooled TFRC pair holds a live timer")
				}
			}
			for _, p := range cs.tcpPool {
				if !p.snd.Quiesced() {
					t.Fatal("pooled TCP sender holds a live timer")
				}
			}
			for _, p := range cs.cbrPool {
				if !p.Quiesced() {
					t.Fatal("pooled CBR probe holds a live timer")
				}
			}
		})
	}
}

// Recycling must be invisible: a two-shard partition, which has no
// Lifecycle and never reclaims, must produce the identical
// arrival/completion trajectory and Palm statistics, with
// constructions == arrivals.
func TestReclaimInvisible(t *testing.T) {
	run := func(k int) []ClassResult {
		net, route := testNet(k)
		if got := net.Shards(); got != k {
			t.Fatalf("partition has %d shards, want %d", got, k)
		}
		_, res := runEngine(t, net, route, []Spec{tfrcSpec(23)}, 40)
		return res
	}
	with := run(1)[0]
	without := run(2)[0]
	if without.Reclaimed != 0 || without.Constructions != without.Arrivals {
		t.Fatalf("two-shard partition reclaimed anyway: %+v", without)
	}
	if with.Reclaimed == 0 {
		t.Fatal("one-domain partition never reclaimed")
	}
	if with.Arrivals != without.Arrivals || with.Completions != without.Completions ||
		with.Peak != without.Peak || with.ActiveAtEnd != without.ActiveAtEnd ||
		with.MeanDuration != without.MeanDuration ||
		with.PalmPop != without.PalmPop || with.TimePop != without.TimePop {
		t.Fatalf("recycling changed the trajectory:\nwith    %+v\nwithout %+v", with, without)
	}
}

// Two identical runs must agree bit for bit, and the Palm log of a
// Poisson class must see PASTA: the population found by arrivals equals
// the time-average population, within Monte Carlo noise.
func TestDeterminismAndPASTA(t *testing.T) {
	run := func() ClassResult {
		net, route := testNet(1)
		// Arrivals run to the very end: a drain tail after Stop would be
		// inside the time average but invisible to the Palm sampling, and
		// the comparison below needs matching windows.
		sp := tfrcSpec(31)
		sp.Stop = 40
		_, res := runEngine(t, net, route, []Spec{sp}, 40)
		return res[0]
	}
	a, b := run(), run()
	if a.Arrivals != b.Arrivals || a.PalmPop != b.PalmPop || a.TimePop != b.TimePop ||
		a.Completions != b.Completions || a.MeanDuration != b.MeanDuration {
		t.Fatalf("replay differs:\n%+v\n%+v", a, b)
	}
	if a.Log == nil {
		t.Fatal("no palm log")
	}
	if a.TimePop <= 0 {
		t.Fatal("no time-average population")
	}
	ratio := a.PalmPop / a.TimePop
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("PASTA violated for Poisson arrivals: palm/time = %v", ratio)
	}
	if got := a.Log.N(); got != int(a.Arrivals) {
		t.Fatalf("palm log has %d cycles for %d arrivals", got, a.Arrivals)
	}
}

// Start/Stop and MaxArrivals must bound the class, and multiple classes
// must get disjoint contiguous flow blocks.
func TestWindowsAndFlowBlocks(t *testing.T) {
	net, route := testNet(1)
	early := tfrcSpec(41)
	early.Name = "early"
	early.Start = 0
	early.Stop = 5
	capped := tfrcSpec(42)
	capped.Name = "capped"
	capped.MaxArrivals = 7
	eng, res := runEngine(t, net, route, []Spec{early, capped}, 40)
	lo, count := eng.FlowRange()
	if lo != 0 || count != early.MaxArrivals+capped.MaxArrivals {
		t.Fatalf("flow range = (%d, %d)", lo, count)
	}
	if eng.classes[1].firstFlow != early.MaxArrivals {
		t.Fatalf("second class starts at %d", eng.classes[1].firstFlow)
	}
	// ~40 arrivals/s for 5 s, Monte Carlo slack.
	if res[0].Arrivals < 100 || res[0].Arrivals > 350 {
		t.Fatalf("windowed class made %d arrivals, want ~200", res[0].Arrivals)
	}
	if res[1].Arrivals != 7 {
		t.Fatalf("capped class made %d arrivals, want 7", res[1].Arrivals)
	}
	if got, _ := eng.classOf(early.MaxArrivals); got != eng.classes[1] {
		t.Fatal("classOf maps the block boundary to the wrong class")
	}
	if got, _ := eng.classOf(count); got != nil {
		t.Fatal("classOf resolves an id past the block")
	}
	if eng.maybeReclaim(count); false {
		t.Fatal("unreachable")
	}
}

func TestArmTwicePanics(t *testing.T) {
	net, route := testNet(1)
	cl := Class{Spec: tfrcSpec(51), FwdHops: route, FwdExtra: 0.005, RevDelay: 0.025, TFRC: baseTFRC()}
	eng := NewEngine(net, 0, []Class{cl})
	lo, count := eng.FlowRange()
	net.ReserveFlows(lo + count)
	eng.Arm()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double Arm")
		}
	}()
	eng.Arm()
}
