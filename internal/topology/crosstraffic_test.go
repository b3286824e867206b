package topology_test

import (
	"math"
	"testing"

	"repro/internal/netsim"
	"repro/internal/shard"
)

// crossDumbbell declares a dumbbell whose bottleneck also carries flow
// 99, a receiver-less sink flow for cross traffic, and returns the
// cluster and the shard the cross-traffic source runs on.
func crossDumbbell(t *testing.T, k int, rate, delay float64, buffer int) (*shard.Cluster, *shard.Shard) {
	t.Helper()
	c, id := dumbbell(t, k, rate, delay, buffer)
	c.AttachSink(99, id)
	return c, c.SinkEnv(id)
}

func TestCrossTrafficMeanRate(t *testing.T) {
	c, s := crossDumbbell(t, 1, 1e9, 0, 1<<20)
	ct := netsim.NewCrossTraffic(s.Sched(), s, 99, 1.25e6, 20, 1.5, 0.05, 1000, 7)
	ct.Start()
	c.Run(2000)
	offered := float64(ct.PacketsSent) * 1000 / 2000
	want := ct.MeanRate()
	// Pareto bursts converge slowly; accept 25%.
	if math.Abs(offered-want)/want > 0.25 {
		t.Fatalf("offered %v B/s, analytic mean %v", offered, want)
	}
	if ct.PacketsSent == 0 {
		t.Fatal("no packets sent")
	}
	checkLeaks(t, c)
}

// Cross-traffic packets ride a sink flow with no endpoints attached:
// they terminate at the bottleneck's egress and must neither panic nor
// leak into other flows.
func TestCrossTrafficUnattachedFlowHarmless(t *testing.T) {
	forShards(t, []int{1, 2}, func(t *testing.T, k int) {
		c, s := crossDumbbell(t, k, 1e6, 0.001, 50)
		got, foreign := 0, 0
		c.AttachFlow(1, nop, netsim.EndpointFunc(func(p *netsim.Packet) {
			if p.Flow != 1 {
				foreign++
			}
			got++
		}), 0, 0.01) // a reverse delay: the pure-delay path may cross the cut
		ct := netsim.NewCrossTraffic(s.Sched(), s, 99, 5e5, 10, 1.5, 0.02, 1000, 8)
		ct.Start()
		send(c, 1, 0, 100)
		c.Run(5)
		if foreign != 0 {
			t.Fatalf("%d foreign packets leaked into flow 1", foreign)
		}
		if got != 1 {
			t.Fatalf("flow 1 deliveries = %d, want 1", got)
		}
		if c.Delivered(99) == 0 {
			t.Fatal("cross traffic never reached the end of its sink route")
		}
		checkLeaks(t, c)
	})
}

func TestCrossTrafficBursty(t *testing.T) {
	// The on/off structure must produce idle gaps much longer than the
	// in-burst gaps.
	c, s := crossDumbbell(t, 1, 1e9, 0, 1<<20)
	link := c.Link(0)
	ct := netsim.NewCrossTraffic(s.Sched(), s, 99, 1.25e6, 50, 1.5, 0.1, 1000, 9)
	var times []float64
	inner := link.Deliver
	link.Deliver = func(p *netsim.Packet) {
		times = append(times, s.Sched().Now())
		inner(p)
	}
	ct.Start()
	c.Run(100)
	if len(times) < 100 {
		t.Fatalf("too few packets: %d", len(times))
	}
	inBurst := 1000.0 / 1.25e6
	long := 0
	for i := 1; i < len(times); i++ {
		if times[i]-times[i-1] > 10*inBurst {
			long++
		}
	}
	if long == 0 {
		t.Fatal("no off periods observed")
	}
	if long > len(times)/2 {
		t.Fatalf("no bursts: %d of %d gaps are long", long, len(times))
	}
}

func TestCrossTrafficOverRoutedSink(t *testing.T) {
	// A cross flow attached as a sink over a chosen sub-path is carried
	// to the route's end and recycled there, congesting only its hops.
	forShards(t, []int{1, 2}, func(t *testing.T, k int) {
		c := shard.New()
		a, b, d := c.AddNode("a"), c.AddNode("b"), c.AddNode("c")
		l0 := c.AddLink(a, b, 1e9, 0.001, netsim.NewDropTail(1000))
		l1 := c.AddLink(b, d, 1e9, 0.001, netsim.NewDropTail(1000))
		partition(t, c, k)
		c.AttachSink(99, l0) // first hop only
		s := c.SinkEnv(l0)
		ct := netsim.NewCrossTraffic(s.Sched(), s, 99, 1e6, 10, 1.5, 0.05, 1000, 11)
		ct.Start()
		c.Run(20)
		if ct.PacketsSent == 0 {
			t.Fatal("no packets sent")
		}
		if c.Delivered(99) == 0 {
			t.Fatal("sink flow delivered nothing")
		}
		if fwd := c.Link(l1).Forwarded; fwd != 0 {
			t.Fatalf("second hop forwarded %d packets of a first-hop sink flow", fwd)
		}
		checkLeaks(t, c)
	})
}

func TestCrossTrafficPanics(t *testing.T) {
	_, s := crossDumbbell(t, 1, 1e6, 0, 10)
	sched := s.Sched()
	cases := []func(){
		func() { netsim.NewCrossTraffic(nil, s, 1, 1e6, 10, 1.5, 0.1, 1000, 1) },
		func() { netsim.NewCrossTraffic(sched, s, 1, 0, 10, 1.5, 0.1, 1000, 1) },
		func() { netsim.NewCrossTraffic(sched, s, 1, 1e6, 0, 1.5, 0.1, 1000, 1) },
		func() { netsim.NewCrossTraffic(sched, s, 1, 1e6, 10, 1, 0.1, 1000, 1) },
		func() { netsim.NewCrossTraffic(sched, s, 1, 1e6, 10, 1.5, 0, 1000, 1) },
		func() { netsim.NewCrossTraffic(sched, s, 1, 1e6, 10, 1.5, 0.1, 0, 1) },
		func() {
			ct := netsim.NewCrossTraffic(sched, s, 1, 1e6, 10, 1.5, 0.1, 1000, 1)
			ct.Start()
			ct.Start()
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
