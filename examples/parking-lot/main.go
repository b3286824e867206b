// parking-lot: build a three-bottleneck parking-lot chain directly on
// the network engine's API — nodes, directed links, per-flow static
// source routes — and race one long TFRC flow and one long TCP flow across all
// three congested hops against short TCP flows crossing one hop each.
//
// This is the multi-bottleneck setting the paper's dumbbell experiments
// never exercised: the long flows accumulate loss at every hop, and the
// conservativeness question becomes whether TFRC still stays at or
// below its formula's rate when p is a product of several independent
// drop points.
//
// Run: go run ./examples/parking-lot
package main

import (
	"fmt"

	"repro/internal/formula"
	"repro/internal/netsim"
	"repro/internal/shard"
	"repro/internal/tcp"
	"repro/internal/tfrc"
	"repro/internal/topology"
)

func main() {
	const (
		hops     = 3
		capacity = 1.25e6 // 10 Mb/s per hop
		hopDelay = 0.01   // 10 ms per hop
		buffer   = 64
		warmup   = 50.0
		measured = 300.0
	)

	net := shard.New()

	// Chain of hops+1 nodes, one bottleneck link per hop.
	nodes := make([]topology.NodeID, hops+1)
	for i := range nodes {
		nodes[i] = net.AddNode(fmt.Sprintf("router%d", i))
	}
	route := make([]topology.LinkID, hops)
	for i := 0; i < hops; i++ {
		route[i] = net.AddLink(nodes[i], nodes[i+1], capacity, hopDelay,
			netsim.NewDropTail(buffer))
	}
	net.SetReverseJitter(0.2, 7)
	// One domain: every endpoint shares the partition's one scheduler.
	net.Partition(1)
	dom := net.Shard(0)
	sched := dom.Sched()

	// Long flows: end to end over every hop.
	flow := 0
	net.SetRoute(flow, route...)
	tfrcSnd, _ := tfrc.NewFlow(sched, dom, flow, tfrc.DefaultConfig(), 0.005, 0.025)
	flow++
	net.SetRoute(flow, route...)
	tcpSnd, _ := tcp.NewFlow(sched, dom, flow, tcp.DefaultConfig(), 0.005, 0.025)
	flow++

	// Crossing flows: two short TCP flows entering and leaving at each
	// hop, congesting exactly one bottleneck.
	var cross []*tcp.Sender
	for h := 0; h < hops; h++ {
		for i := 0; i < 2; i++ {
			net.SetRoute(flow, route[h])
			snd, _ := tcp.NewFlow(sched, dom, flow, tcp.DefaultConfig(), 0, 0.02)
			cross = append(cross, snd)
			sched.At(0.1*float64(flow), snd.Start)
			flow++
		}
	}
	tfrcSnd.Start()
	sched.At(0.21, tcpSnd.Start)

	net.Run(warmup)
	tfrcSnd.ResetStats()
	tcpSnd.ResetStats()
	for _, s := range cross {
		s.ResetStats()
	}
	net.Run(warmup + measured)

	tf, tc := tfrcSnd.Stats(), tcpSnd.Stats()
	fmt.Printf("parking lot: %d × 10 Mb/s bottlenecks, long TFRC + long TCP vs %d crossing TCP\n\n",
		hops, len(cross))
	fmt.Printf("long TFRC: x̄ = %7.1f pkt/s   p = %.5f   r = %.1f ms  (base %.1f ms)\n",
		tf.Throughput, tf.LossEventRate, tf.MeanRTT*1000, net.BaseRTT(0)*1000)
	fmt.Printf("long TCP:  x̄'= %7.1f pkt/s   p'= %.5f   r'= %.1f ms\n\n",
		tc.Throughput, tc.LossEventRate, tc.MeanRTT*1000)

	var crossX float64
	for _, s := range cross {
		crossX += s.Stats().Throughput
	}
	fmt.Printf("crossing TCP (aggregate over %d flows): %.1f pkt/s\n\n", len(cross), crossX)

	if tf.LossEventRate > 0 && tf.MeanRTT > 0 {
		f := formula.NewPFTKStandard(formula.ParamsForRTT(tf.MeanRTT))
		norm := tf.Throughput / f.Rate(tf.LossEventRate)
		fmt.Printf("conservativeness across %d bottlenecks: x̄/f(p,r) = %.3f\n", hops, norm)
		fmt.Println("(Claim 1 predicts <= 1 up to estimator noise — now checkable beyond the dumbbell)")
	}

	// The network accounts for every freelist packet even mid-flight.
	if err := net.CheckLeaks(); err != nil {
		panic(err)
	}
}
