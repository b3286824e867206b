package topology_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/netsim"
	"repro/internal/shard"
	"repro/internal/topology"
)

// chain declares a linear graph of hops links at the given rate/delay
// and returns the cluster and the forward route.
func chain(hops int, rate, delay float64, buffer int) (*shard.Cluster, []topology.LinkID) {
	c := shard.New()
	nodes := make([]topology.NodeID, hops+1)
	for i := range nodes {
		nodes[i] = c.AddNode("n")
	}
	route := make([]topology.LinkID, hops)
	for i := 0; i < hops; i++ {
		route[i] = c.AddLink(nodes[i], nodes[i+1], rate, delay, netsim.NewDropTail(buffer))
	}
	return c, route
}

// mirror declares the routed reverse counterpart of a linear forward
// route: one link per forward hop, in reverse order, from the hop's
// head node back to its tail, at the given rate and delay. queue
// selects reverse hop i's queue; nil gives unbounded lossless FIFOs.
func mirror(c *shard.Cluster, hops int, rate, delay float64, queue func(hop int) netsim.Queue) []topology.LinkID {
	rev := make([]topology.LinkID, hops)
	for i := range rev {
		var q netsim.Queue = netsim.NewUnbounded()
		if queue != nil {
			q = queue(i)
		}
		rev[i] = c.AddLink(topology.NodeID(hops-i), topology.NodeID(hops-i-1), rate, delay, q)
	}
	return rev
}

// Table-driven coverage for reverse-route construction: a mirrored
// default, an explicit asymmetric route, and the rejection cases.
func TestReverseRouteConstruction(t *testing.T) {
	cases := []struct {
		name      string
		build     func(t *testing.T, k int)
		wantPanic string // empty = must not panic
	}{
		{name: "mirrored default", build: func(t *testing.T, k int) {
			c, fwd := chain(2, 1e5, 0.01, 16)
			rev := mirror(c, 2, 1e5, 0.01, nil)
			c.SetDefaultRoute(fwd...)
			c.SetDefaultReverseRoute(rev...)
			partition(t, c, k)
			c.AttachFlow(1, nop, nop, 0.005, 0.002)
			// Base RTT: 2×10 ms fwd + 2×10 ms rev + 5 ms + 2 ms.
			if math.Abs(c.BaseRTT(1)-0.047) > 1e-12 {
				t.Fatalf("base rtt = %v, want 0.047", c.BaseRTT(1))
			}
		}},
		{name: "explicit asymmetric route", build: func(t *testing.T, k int) {
			c, fwd := chain(1, 1e6, 0.01, 16)
			// Reverse path through its own intermediate node at a tenth
			// of the forward capacity — two hops back for one hop out.
			mid := c.AddNode("mid")
			r0 := c.AddLink(1, mid, 1e5, 0.004, netsim.NewDropTail(8))
			r1 := c.AddLink(mid, 0, 1e5, 0.004, netsim.NewDropTail(8))
			c.SetRoute(1, fwd...)
			c.SetReverseRoute(1, r0, r1)
			partition(t, c, k)
			c.AttachFlow(1, nop, nop, 0, 0)
			if math.Abs(c.BaseRTT(1)-(0.01+0.004+0.004)) > 1e-12 {
				t.Fatalf("base rtt = %v, want 0.018", c.BaseRTT(1))
			}
		}},
		{name: "sink flow rejection", wantPanic: "sink flow", build: func(t *testing.T, k int) {
			c, fwd := chain(1, 1e5, 0.01, 16)
			rev := mirror(c, 1, 1e5, 0.01, nil)
			c.SetReverseRoute(7, rev...)
			partition(t, c, k)
			c.AttachSink(7, fwd...)
		}},
		{name: "default reverse skips sinks", build: func(t *testing.T, k int) {
			c, fwd := chain(1, 1e5, 0.01, 16)
			c.SetDefaultRoute(fwd...)
			c.SetDefaultReverseRoute(mirror(c, 1, 1e5, 0.01, nil)...)
			partition(t, c, k)
			c.AttachSink(7, fwd...) // must not inherit the reverse route
			if math.Abs(c.BaseRTT(7)-0.01) > 1e-12 {
				t.Fatalf("sink base rtt = %v, want the forward hop only", c.BaseRTT(7))
			}
		}},
		{name: "reverse starts at wrong node", wantPanic: "reverse route starts", build: func(t *testing.T, k int) {
			c, fwd := chain(2, 1e5, 0.01, 16)
			rev := mirror(c, 2, 1e5, 0.01, nil)
			c.SetRoute(1, fwd[0]) // forward stops a hop short
			c.SetReverseRoute(1, rev...)
			partition(t, c, k)
			c.AttachFlow(1, nop, nop, 0, 0)
		}},
		{name: "reverse ends at wrong node", wantPanic: "reverse route ends", build: func(t *testing.T, k int) {
			c, fwd := chain(2, 1e5, 0.01, 16)
			rev := mirror(c, 2, 1e5, 0.01, nil)
			c.SetRoute(1, fwd...)
			c.SetReverseRoute(1, rev[0]) // reverse stops a hop short
			partition(t, c, k)
			c.AttachFlow(1, nop, nop, 0, 0)
		}},
		{name: "discontiguous reverse route", wantPanic: "does not start where", build: func(t *testing.T, k int) {
			c, _ := chain(2, 1e5, 0.01, 16)
			rev := mirror(c, 2, 1e5, 0.01, nil)
			c.SetReverseRoute(1, rev[1], rev[0]) // out of order
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			forShards(t, []int{1, 2}, func(t *testing.T, k int) {
				defer func() {
					r := recover()
					switch {
					case tc.wantPanic == "" && r != nil:
						t.Fatalf("unexpected panic: %v", r)
					case tc.wantPanic != "" && r == nil:
						t.Fatalf("expected panic containing %q", tc.wantPanic)
					case tc.wantPanic != "":
						if msg, ok := r.(string); !ok || !strings.Contains(msg, tc.wantPanic) {
							t.Fatalf("panic %v, want substring %q", r, tc.wantPanic)
						}
					}
				}()
				tc.build(t, k)
			})
		})
	}
}

// A routed reverse path must impose real serialization and propagation:
// a data packet out and an ack back over mirrored 10 ms links arrive at
// the sum of both directions' transmission and propagation times.
func TestRoutedReverseTiming(t *testing.T) {
	forShards(t, []int{1, 2}, func(t *testing.T, k int) {
		c, fwd := chain(1, 1e5, 0.01, 16)
		c.SetRoute(1, fwd...)
		c.SetReverseRoute(1, mirror(c, 1, 1e5, 0.01, nil)...)
		partition(t, c, k)
		snd, rcv := c.FlowEnv(1)
		ackAt := -1.0
		c.AttachFlow(1, netsim.EndpointFunc(func(*netsim.Packet) { ackAt = snd.Sched().Now() }),
			acker(rcv, 500), 0, 0)
		send(c, 1, 0, 1000)
		c.Run(1)
		// Out: 10 ms serialization + 10 ms propagation. Back: 5 ms + 10 ms.
		if math.Abs(ackAt-0.035) > 1e-9 {
			t.Fatalf("ack at %v, want 0.035", ackAt)
		}
		checkLeaks(t, c)
	})
}

// Reverse packets crossing a congested reverse queue are dropped like
// any other traffic, and the freelist leak invariant accounts for
// reverse-path packets in flight — mid-run and after a full drain.
func TestRoutedReverseDropsAndLeakInvariant(t *testing.T) {
	forShards(t, []int{1, 2}, func(t *testing.T, k int) {
		c, fwd := chain(1, 1e6, 0.005, 64)
		// A tight reverse bottleneck: 2-packet queue at a hundredth of
		// the forward rate.
		rev := mirror(c, 1, 1e4, 0.005, func(int) netsim.Queue { return netsim.NewDropTail(2) })
		c.SetRoute(1, fwd...)
		c.SetReverseRoute(1, rev...)
		partition(t, c, k)
		_, rcv := c.FlowEnv(1)
		acked := 0
		c.AttachFlow(1, netsim.EndpointFunc(func(*netsim.Packet) { acked++ }), acker(rcv, 1000), 0, 0.002)
		for i := 0; i < 50; i++ {
			send(c, 1, int64(i), 1000)
		}
		// Mid-flight: acks sit in the reverse queue, on the reverse wire,
		// and in pending terminal deliveries; nothing may be unaccounted.
		c.Run(0.05)
		if err := c.CheckLeaks(); err != nil {
			t.Fatalf("mid-flight: %v", err)
		}
		c.Run(10)
		drops := c.Link(rev[0]).Queue().(*netsim.DropTail).Drops
		if drops == 0 {
			t.Fatal("expected drops on the tight reverse bottleneck")
		}
		if acked == 0 {
			t.Fatal("no ack survived")
		}
		if int64(acked)+drops != 50 {
			t.Fatalf("acked %d + dropped %d != 50", acked, drops)
		}
		checkLeaks(t, c)
		if c.Outstanding() != 0 {
			t.Fatalf("outstanding = %d after full drain", c.Outstanding())
		}
	})
}

// The terminal reverse delay of a routed reverse path is jittered the
// same way as the pure-delay path. The links have zero delay, so the
// graph is one atom and runs on one domain only.
func TestRoutedReverseTerminalJitter(t *testing.T) {
	c, fwd := chain(1, 1e9, 0, 64)
	c.SetRoute(1, fwd...)
	c.SetReverseRoute(1, mirror(c, 1, 1e9, 0, nil)...)
	c.SetReverseJitter(0.2, 42)
	partition(t, c, 1)
	snd, rcv := c.FlowEnv(1)
	var arrivals []float64
	c.AttachFlow(1, netsim.EndpointFunc(func(*netsim.Packet) { arrivals = append(arrivals, snd.Sched().Now()) }),
		nop, 0, 0.1)
	for i := 0; i < 100; i++ {
		p := rcv.GetPacket()
		p.Flow = 1
		p.Kind = netsim.Ack
		rcv.SendReverse(p)
	}
	c.Run(1)
	if len(arrivals) != 100 {
		t.Fatalf("arrivals = %d", len(arrivals))
	}
	lo, hi := arrivals[0], arrivals[0]
	for _, a := range arrivals {
		lo, hi = math.Min(lo, a), math.Max(hi, a)
	}
	if lo < 0.08-1e-12 || hi > 0.12+1e-12 {
		t.Fatalf("jittered terminal delays outside [0.08, 0.12]: [%v, %v]", lo, hi)
	}
	if hi-lo < 0.005 {
		t.Fatalf("jitter did not spread delays: [%v, %v]", lo, hi)
	}
	checkLeaks(t, c)
}
