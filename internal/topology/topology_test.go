// The network graph named by this package's ids is executed by the
// engine in internal/shard. These tests pin the graph's forwarding
// contract — routes, sinks, jitter, the freelist leak invariant — on
// that engine, on a one-domain partition and, wherever the graph has
// two or more atoms, on a two-shard one.
package topology_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/netsim"
	"repro/internal/shard"
	"repro/internal/topology"
)

// forShards runs body once per shard count in ks as a subtest.
func forShards(t *testing.T, ks []int, body func(t *testing.T, k int)) {
	t.Helper()
	for _, k := range ks {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) { body(t, k) })
	}
}

// partition splits the cluster and requires exactly k shards.
func partition(t *testing.T, c *shard.Cluster, k int) {
	t.Helper()
	c.Partition(k)
	if c.Shards() != k {
		t.Fatalf("graph split into %d shards, want %d", c.Shards(), k)
	}
}

// dumbbell declares and partitions a dumbbell around a DropTail
// bottleneck.
func dumbbell(t *testing.T, k int, rate, delay float64, buffer int) (*shard.Cluster, topology.LinkID) {
	t.Helper()
	c := shard.New()
	id := c.Dumbbell(rate, delay, netsim.NewDropTail(buffer))
	partition(t, c, k)
	return c, id
}

// send injects a forward packet of the flow from its sender's shard.
func send(c *shard.Cluster, flow int, seq int64, size int) {
	snd, _ := c.FlowEnv(flow)
	p := snd.GetPacket()
	p.Flow = flow
	p.Seq = seq
	p.Size = size
	snd.SendForward(p)
}

// acker is a receiver endpoint that answers every packet with an ack of
// the given size over the flow's reverse path.
func acker(net netsim.Network, size int) netsim.Endpoint {
	return netsim.EndpointFunc(func(p *netsim.Packet) {
		ack := net.GetPacket()
		ack.Flow = p.Flow
		ack.Kind = netsim.Ack
		ack.Size = size
		net.SendReverse(ack)
	})
}

func checkLeaks(t *testing.T, c *shard.Cluster) {
	t.Helper()
	if err := c.CheckLeaks(); err != nil {
		t.Fatal(err)
	}
}

var nop = netsim.EndpointFunc(func(*netsim.Packet) {})

func TestDumbbellForwardAndReverse(t *testing.T) {
	forShards(t, []int{1, 2}, func(t *testing.T, k int) {
		c, _ := dumbbell(t, k, 1e6, 0.02, 100)
		snd, rcv := c.FlowEnv(1)
		// Each timestamp is written by the shard its endpoint lives on.
		recvAt, ackAt := -1.0, -1.0
		c.AttachFlow(1,
			netsim.EndpointFunc(func(*netsim.Packet) { ackAt = snd.Sched().Now() }),
			netsim.EndpointFunc(func(p *netsim.Packet) {
				recvAt = rcv.Sched().Now()
				acker(rcv, 40).Receive(p)
			}), 0.005, 0.025)
		send(c, 1, 0, 1000)
		c.Run(1)
		// Out: 1 ms serialization + 20 ms propagation + 5 ms extra; back:
		// the 25 ms pure-delay reverse path.
		if math.Abs(recvAt-0.026) > 1e-9 || math.Abs(ackAt-0.051) > 1e-9 {
			t.Fatalf("received at %v, acked at %v; want 0.026, 0.051", recvAt, ackAt)
		}
		// Base RTT: 0.02 + 0.005 + 0.025 = 0.05.
		if math.Abs(c.BaseRTT(1)-0.05) > 1e-12 {
			t.Fatalf("base rtt = %v", c.BaseRTT(1))
		}
		checkLeaks(t, c)
	})
}

// A packet of a flow that was never attached is a wiring bug: the
// engine rejects it at the first hop instead of silently sinking it.
func TestDumbbellUnknownFlowRejected(t *testing.T) {
	forShards(t, []int{1, 2}, func(t *testing.T, k int) {
		c, _ := dumbbell(t, k, 1e6, 0.001, 10)
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic on a packet of an unattached flow")
			}
		}()
		send(c, 42, 0, 100)
	})
}

func TestDumbbellDuplicateFlowPanics(t *testing.T) {
	forShards(t, []int{1, 2}, func(t *testing.T, k int) {
		c, _ := dumbbell(t, k, 1e6, 0.001, 10)
		c.AttachFlow(1, nop, nop, 0, 0)
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic on duplicate flow")
			}
		}()
		c.AttachFlow(1, nop, nop, 0, 0)
	})
}

// A three-hop route must deliver in order, after the sum of the hop
// serialization and propagation delays, and touch every link.
func TestMultiHopRouteTiming(t *testing.T) {
	forShards(t, []int{1, 2}, func(t *testing.T, k int) {
		c := shard.New()
		n := []topology.NodeID{c.AddNode("s"), c.AddNode("r1"), c.AddNode("r2"), c.AddNode("d")}
		var hops []topology.LinkID
		for i := 0; i < 3; i++ {
			hops = append(hops, c.AddLink(n[i], n[i+1], 1e5, 0.01, netsim.NewDropTail(10)))
		}
		c.SetRoute(1, hops...)
		partition(t, c, k)
		_, rcv := c.FlowEnv(1)
		var arrivals []float64
		var seqs []int64
		c.AttachFlow(1, nop, netsim.EndpointFunc(func(p *netsim.Packet) {
			arrivals = append(arrivals, rcv.Sched().Now())
			seqs = append(seqs, p.Seq)
		}), 0.005, 0.02)
		for i := 0; i < 3; i++ {
			send(c, 1, int64(i), 1000)
		}
		c.Run(1)
		if len(arrivals) != 3 {
			t.Fatalf("arrivals = %v", arrivals)
		}
		// First packet: 3 hops × (10 ms serialization + 10 ms propagation)
		// + 5 ms terminal delay = 65 ms; later packets pipeline 10 ms apart.
		want := []float64{0.065, 0.075, 0.085}
		for i := range want {
			if math.Abs(arrivals[i]-want[i]) > 1e-9 {
				t.Fatalf("arrival %d at %v, want %v (all: %v)", i, arrivals[i], want[i], arrivals)
			}
			if seqs[i] != int64(i) {
				t.Fatalf("reordered: %v", seqs)
			}
		}
		for _, h := range hops {
			if c.Link(h).Forwarded != 3 {
				t.Fatalf("link %d forwarded %d", h, c.Link(h).Forwarded)
			}
		}
		if c.Delivered(1) != 3 {
			t.Fatalf("delivered = %d", c.Delivered(1))
		}
		if math.Abs(c.BaseRTT(1)-(0.01*3+0.005+0.02)) > 1e-12 {
			t.Fatalf("base rtt = %v", c.BaseRTT(1))
		}
		checkLeaks(t, c)
	})
}

// Packets dropped at an inner hop are recycled: the leak invariant
// holds with drops and with packets cut off mid-flight.
func TestLeakInvariantWithDropsAndCutoff(t *testing.T) {
	forShards(t, []int{1, 2}, func(t *testing.T, k int) {
		c := shard.New()
		a, b, d := c.AddNode("a"), c.AddNode("b"), c.AddNode("c")
		l0 := c.AddLink(a, b, 1e5, 0.005, netsim.NewDropTail(4))
		l1 := c.AddLink(b, d, 5e4, 0.005, netsim.NewDropTail(2)) // tighter: drops here
		c.SetRoute(1, l0, l1)
		partition(t, c, k)
		delivered := 0
		c.AttachFlow(1, nop, netsim.EndpointFunc(func(*netsim.Packet) { delivered++ }), 0, 0.01)
		for i := 0; i < 50; i++ {
			send(c, 1, int64(i), 1000)
		}
		// Mid-flight check: packets sit in queues, serialization and
		// propagation; nothing may be unaccounted for.
		c.Run(0.05)
		if err := c.CheckLeaks(); err != nil {
			t.Fatalf("mid-flight: %v", err)
		}
		c.Run(10)
		if delivered == 0 {
			t.Fatal("nothing delivered")
		}
		drops := c.Link(l0).Queue().(*netsim.DropTail).Drops +
			c.Link(l1).Queue().(*netsim.DropTail).Drops
		if drops == 0 {
			t.Fatal("expected drops on the tight inner hop")
		}
		if int64(delivered)+drops != 50 {
			t.Fatalf("delivered %d + dropped %d != 50", delivered, drops)
		}
		checkLeaks(t, c)
		if c.Outstanding() != 0 {
			t.Fatalf("outstanding = %d after full drain", c.Outstanding())
		}
	})
}

func TestReverseJitterBounds(t *testing.T) {
	forShards(t, []int{1, 2}, func(t *testing.T, k int) {
		c := shard.New()
		c.Dumbbell(1e9, 0.001, netsim.NewDropTail(10))
		c.SetReverseJitter(0.2, 42)
		partition(t, c, k)
		snd, rcv := c.FlowEnv(1)
		var arrivals []float64
		c.AttachFlow(1, netsim.EndpointFunc(func(*netsim.Packet) { arrivals = append(arrivals, snd.Sched().Now()) }),
			nop, 0, 0.1)
		for i := 0; i < 200; i++ {
			p := rcv.GetPacket()
			p.Flow = 1
			p.Kind = netsim.Ack
			rcv.SendReverse(p)
		}
		c.Run(1)
		if len(arrivals) != 200 {
			t.Fatalf("arrivals = %d", len(arrivals))
		}
		lo, hi := arrivals[0], arrivals[0]
		for _, a := range arrivals {
			lo, hi = math.Min(lo, a), math.Max(hi, a)
		}
		if lo < 0.08-1e-12 || hi > 0.12+1e-12 {
			t.Fatalf("jittered delays outside [0.08, 0.12]: [%v, %v]", lo, hi)
		}
		if hi-lo < 0.01 {
			t.Fatalf("jitter did not spread delays: [%v, %v]", lo, hi)
		}
		checkLeaks(t, c)
	})
}

func TestTopologyPanics(t *testing.T) {
	fresh := func() (*shard.Cluster, topology.LinkID) {
		c := shard.New()
		a, b := c.AddNode("a"), c.AddNode("b")
		id := c.AddLink(a, b, 1e6, 0, netsim.NewDropTail(1))
		return c, id
	}
	partitioned := func() (*shard.Cluster, topology.LinkID) {
		c, id := fresh()
		c.Partition(1)
		return c, id
	}
	cases := []func(){
		func() {
			c, _ := fresh()
			c.AddLink(0, 7, 1e6, 0, netsim.NewDropTail(1)) // node out of range
		},
		func() {
			c, _ := fresh()
			c.AddLink(0, 1, 1e6, 0, nil) // nil queue
		},
		func() {
			c, _ := fresh()
			c.AddLink(0, 1, 0, 0, netsim.NewDropTail(1)) // zero rate
		},
		func() {
			c, _ := fresh()
			c.Dumbbell(1e6, 0, netsim.NewDropTail(1)) // graph not empty
		},
		func() {
			c, _ := partitioned()
			c.AddLink(0, 1, 1e6, 0, netsim.NewDropTail(1)) // after Partition
		},
		func() {
			c, _ := partitioned()
			c.Partition(1) // twice
		},
		func() {
			c, _ := fresh()
			c.SetRoute(1) // empty route
		},
		func() {
			c, id := fresh()
			c.SetRoute(1, id, id) // discontiguous: link ends at b, restarts at a
		},
		func() {
			c, _ := fresh()
			c.SetRoute(1, 9) // unknown link
		},
		func() {
			c, id := fresh()
			c.SetRoute(1, id)
			c.AttachFlow(1, nop, nop, 0, 0) // before Partition
		},
		func() {
			c, id := partitioned()
			c.SetRoute(1, id)
			c.AttachFlow(1, nil, nop, 0, 0) // nil endpoint
		},
		func() {
			c, id := partitioned()
			c.SetRoute(1, id)
			c.AttachFlow(1, nop, nop, -1, 0) // negative delay
		},
		func() {
			c, _ := partitioned()
			c.AttachFlow(1, nop, nop, 0, 0) // no route, no default
		},
		func() {
			c, _ := partitioned()
			s := c.Shard(0)
			p := s.GetPacket()
			p.Flow = 3
			s.SendForward(p) // unattached flow
		},
		func() {
			c, _ := partitioned()
			s := c.Shard(0)
			p := s.GetPacket()
			p.Flow = 9
			s.SendReverse(p) // unknown flow
		},
		func() {
			c, _ := fresh()
			c.SetReverseJitter(1.5, 1)
		},
		func() {
			c, id := partitioned()
			c.SetRoute(1, id)
			c.AttachFlow(1, nop, nop, 0, 0)
			c.SetReverseJitter(0.1, 1) // after flows attached
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

// TestNetworkResetReuse checks the pooling property: a cluster Reset
// and rebuilt in place must behave identically to a fresh one — same
// deliveries, same leak accounting — while reusing the packet,
// delivery and flow-record pools and the shards' schedulers carried
// across the reset, so the rebuilt run allocates less.
func TestNetworkResetReuse(t *testing.T) {
	forShards(t, []int{1, 2}, func(t *testing.T, k int) {
		run := func(c *shard.Cluster) int64 {
			a := c.AddNode("a")
			b := c.AddNode("b")
			d := c.AddNode("c")
			l1 := c.AddLink(a, b, 1e6, 0.01, netsim.NewDropTail(4))
			l2 := c.AddLink(b, d, 1e6, 0.01, netsim.NewDropTail(4))
			c.SetDefaultRoute(l1, l2)
			partition(t, c, k)
			c.AttachFlow(1, nop, nop, 0.002, 0.005)
			for i := 0; i < 20; i++ {
				send(c, 1, int64(i), 1000)
			}
			c.Run(1)
			checkLeaks(t, c)
			return c.Delivered(1)
		}

		want := run(shard.New())
		reused := shard.New()
		run(reused)
		reused.Reset()
		if reused.Shards() != 0 || reused.Links() != 0 || reused.Outstanding() != 0 || reused.InNetwork() != 0 {
			t.Fatalf("Reset left state: %d shards, %d links, outstanding=%d, in-network=%d",
				reused.Shards(), reused.Links(), reused.Outstanding(), reused.InNetwork())
		}
		if got := run(reused); got != want {
			t.Fatalf("reused cluster delivered %d packets, fresh delivered %d", got, want)
		}

		fresh := testing.AllocsPerRun(5, func() { run(shard.New()) })
		rebuilt := testing.AllocsPerRun(5, func() {
			reused.Reset()
			run(reused)
		})
		if rebuilt >= fresh {
			t.Fatalf("rebuilding in a reset cluster allocated %v times per run, a fresh one %v: pools not carried across Reset",
				rebuilt, fresh)
		}
	})
}
