// rate-dynamics: trace the send-rate trajectories of one TFRC and one
// TCP flow sharing a DropTail bottleneck, sampled every 100 ms, printed
// as TSV (plot with any tool). TFRC's trace is visibly smoother — the
// property the paper ties to its loss-event sampling behavior (Claim 3:
// smoother senders sample the congestion process less favorably).
//
// Run: go run ./examples/rate-dynamics > trace.tsv
package main

import (
	"fmt"
	"os"

	"repro/internal/netsim"
	"repro/internal/shard"
	"repro/internal/tcp"
	"repro/internal/tfrc"
	"repro/internal/trace"
)

func main() {
	c := shard.New()
	link := c.Dumbbell(1.25e6, 0.01, netsim.NewDropTail(80))
	c.SetReverseJitter(0.2, 7)
	c.Partition(1)
	net := c.Shard(0)
	sched := net.Sched()

	tsnd, _ := tfrc.NewFlow(sched, net, 1, tfrc.DefaultConfig(), 0, 0.03)
	csnd, _ := tcp.NewFlow(sched, net, 2, tcp.DefaultConfig(), 0, 0.03)
	tsnd.Start()
	sched.At(0.5, csnd.Start)

	rec := trace.NewRecorder()
	tfrcRate := rec.Series("tfrc_pkts_per_s")
	tcpWnd := rec.Series("tcp_cwnd_pkts")
	queueLen := rec.Series("queue_pkts")

	const horizon = 120.0
	var sample func()
	sample = func() {
		now := sched.Now()
		tfrcRate.Add(now, tsnd.Rate()/1000) // 1000-byte packets
		tcpWnd.Add(now, csnd.Cwnd())
		queueLen.Add(now, float64(c.Link(link).Queue().Len()))
		if now < horizon {
			sched.After(0.1, sample)
		}
	}
	sched.After(0.1, sample)
	c.Run(horizon)

	if err := rec.WriteTSV(os.Stdout, 0, horizon, 1200); err != nil {
		fmt.Fprintf(os.Stderr, "rate-dynamics: %v\n", err)
		os.Exit(1)
	}
	mean, err := tfrcRate.TimeAverage(20, horizon)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rate-dynamics: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "TFRC mean rate %.1f pkt/s; trace written to stdout\n", mean)
}
