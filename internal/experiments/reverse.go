package experiments

import (
	"context"
	"fmt"
	"math"

	"repro/internal/formula"
	"repro/internal/runner"
	"repro/internal/tcp"
	"repro/internal/tfrc"
	"repro/internal/topology"
)

// RevSimConfig describes one bidirectional simulation whose reverse
// path is routed through real queues: primary TFRC and TCP flows send
// data over a forward bottleneck while their feedback and ACKs traverse
// a chain of reverse bottleneck links — where they can be queued behind
// competing traffic, delayed, and dropped. The reverse chain can be
// congested by unresponsive cross traffic (RevCrossLoad), by
// opposing-direction TCP data (BackTCP), or starved by asymmetric
// capacities (RevCapacities), probing the regimes where the paper's
// conservativeness results rest on feedback actually arriving.
type RevSimConfig struct {
	// Capacity is the forward bottleneck rate in bytes/second.
	Capacity float64
	// Buffer is the forward DropTail capacity in packets.
	Buffer int
	// FwdDelay is the forward bottleneck's one-way propagation delay.
	FwdDelay float64
	// AccessDelay is the extra one-way delay from the forward
	// bottleneck's egress to each primary receiver.
	AccessDelay float64
	// RevExtra is the remaining reverse delay after the last reverse
	// hop back to each primary sender.
	RevExtra float64
	// RevCapacities lists the reverse chain's link rates in
	// bytes/second, traversed receiver → sender. Must be non-empty.
	RevCapacities []float64
	// RevBuffer is the per-reverse-hop DropTail capacity in packets.
	RevBuffer int
	// RevHopDelay is the per-reverse-hop one-way propagation delay.
	RevHopDelay float64
	// NTFRC and NTCP are the numbers of primary (forward-direction)
	// flows.
	NTFRC, NTCP int
	// BackTCP adds opposing-direction TCP flows: their data traverses
	// the reverse chain and their ACKs ride the forward bottleneck, so
	// acknowledgments compete with data in both directions.
	BackTCP int
	// RevCrossLoad, when positive, offers this fraction of the tightest
	// reverse hop's capacity as unresponsive on/off cross traffic over
	// the whole reverse chain.
	RevCrossLoad float64
	// L is the TFRC loss-interval window.
	L int
	// Comprehensive toggles TFRC's comprehensive-control element.
	Comprehensive bool
	// Duration and Warmup are the measured and discarded sim seconds.
	Duration, Warmup float64
	// Seed drives all randomness in the run.
	Seed uint64
	// RevJitter randomizes the terminal reverse delays (fraction, see
	// shard.Cluster.SetReverseJitter).
	RevJitter float64
	// Shards, when above 1, partitions the run's network (internal/shard)
	// into at most that many space-parallel domains; <= 1 runs it on one.
	// The results are byte-identical at any value.
	Shards int
}

// RevSimResult holds per-class aggregates of one routed-reverse run
// plus the reverse path's own telemetry.
type RevSimResult struct {
	// TFRC and TCP aggregate the primary forward-direction flows; Back
	// aggregates the opposing-direction TCP flows.
	TFRC, TCP, Back ClassStats
	// TFRCPerFlow and TCPPerFlow keep the primary flows' stats in
	// attachment order.
	TFRCPerFlow []tfrc.Stats
	TCPPerFlow  []tcp.Stats
	// BaseRTT is the primary flows' no-queueing round-trip time.
	BaseRTT float64
	// RevDrops counts packets dropped anywhere on the reverse chain over
	// the whole run (feedback, ACKs, back-traffic data and cross traffic
	// pooled); RevDropRate normalizes by the packets that entered the
	// chain, so it is the per-packet probability of not surviving the
	// whole chain and stays comparable across chain lengths.
	RevDrops    int64
	RevDropRate float64
	// NoFeedbackHalvings totals the primary TFRC senders' no-feedback
	// timer expirations in the measurement window.
	NoFeedbackHalvings int64
	// AcksPerPacket is the primary TCP classes' received-ACKs per data
	// packet sent in the window (nominally 1/b = 0.5; lower means ACK
	// loss on the reverse path).
	AcksPerPacket float64
	// EventsFired counts the scheduler events of the whole run.
	EventsFired uint64
	// Obs is the run's observability capture (nil unless the process-
	// wide Observe options enable one).
	Obs *RunObs
}

// RunRevSim executes the configured routed-reverse simulation and
// returns the per-class aggregates. It is fully deterministic in
// cfg.Seed.
func RunRevSim(cfg RevSimConfig) RevSimResult {
	tc := tfrc.DefaultConfig()
	tc.Window = cfg.L
	tc.Comprehensive = cfg.Comprehensive
	// Nodes src, dst, rev1..rev(k-1): link 0 is the forward bottleneck
	// src -> dst, links 1..k the reverse chain dst -> rev1 -> ... -> src,
	// one link per configured capacity.
	k := len(cfg.RevCapacities)
	spec := runSpec{
		seed: cfg.Seed, warmup: cfg.Warmup, duration: cfg.Duration,
		shards: cfg.Shards, jitter: cfg.RevJitter,
		nodes: append(make([]string, 0, k+1), "src", "dst"),
		links: append(make([]linkDecl, 0, k+1), linkDecl{from: 0, to: 1,
			rate: cfg.Capacity, delay: cfg.FwdDelay, queue: DropTail, buffer: cfg.Buffer}),
	}
	for i := 1; i < k; i++ {
		spec.nodes = append(spec.nodes, fmt.Sprintf("rev%d", i))
	}
	fwd := []topology.LinkID{0}
	rev := make([]topology.LinkID, k)
	for i, c := range cfg.RevCapacities {
		to := topology.NodeID(i + 2)
		if i == k-1 {
			to = 0
		}
		rev[i] = topology.LinkID(i + 1)
		spec.links = append(spec.links, linkDecl{from: topology.NodeID(i + 1), to: to,
			rate: c, delay: cfg.RevHopDelay, queue: DropTail, buffer: cfg.RevBuffer})
	}
	spec.route, spec.revRoute = fwd, rev
	// Opposing-direction flows: data over the reverse chain, ACKs over
	// the forward bottleneck.
	back := make([][]topology.LinkID, max(cfg.BackTCP, 0))
	for i := range back {
		back[i] = rev
	}
	spec.groups = []flowGroup{
		{name: "TFRC", proto: protoTFRC, n: cfg.NTFRC,
			access: cfg.AccessDelay, revDelay: cfg.RevExtra, tfrc: tc},
		{name: "TCP", proto: protoTCP, n: cfg.NTCP, access: cfg.AccessDelay, revDelay: cfg.RevExtra},
		{name: "back TCP", proto: protoTCP, n: cfg.BackTCP, routes: back, rev: fwd,
			access: cfg.AccessDelay, revDelay: cfg.RevExtra},
	}
	// The cross source offers RevCrossLoad of the tightest reverse hop
	// over the whole chain, bursting at that hop's full rate.
	if k > 0 {
		minCap := cfg.RevCapacities[0]
		for _, c := range cfg.RevCapacities[1:] {
			minCap = math.Min(minCap, c)
		}
		spec.cross = crossDecl{route: rev, load: cfg.RevCrossLoad, peak: minCap, base: minCap}
	}

	out := spec.run()
	res := RevSimResult{
		TFRC: out.groups[0].class, TCP: out.groups[1].class, Back: out.groups[2].class,
		TFRCPerFlow: out.groups[0].tfrc,
		TCPPerFlow:  out.groups[1].tcp,
		// Flow 0 is always a primary flow and all primaries share terminal
		// delays, so its base RTT represents the class.
		BaseRTT:     out.baseRTT[0],
		EventsFired: out.fired,
		Obs:         out.obs,
	}
	for _, l := range out.links[1:] {
		res.RevDrops += l.queueDrops
	}
	// All reverse-chain traffic enters at the first hop, so the packets
	// offered to the chain are that hop's forwards plus its own drops;
	// drops at later hops already count among the first hop's forwards.
	if offered := out.links[1].forwarded + out.links[1].queueDrops; offered > 0 {
		res.RevDropRate = float64(res.RevDrops) / float64(offered)
	}
	for _, st := range res.TFRCPerFlow {
		res.NoFeedbackHalvings += st.NoFeedbackHalvings
	}
	var acks, pkts int64
	for _, st := range res.TCPPerFlow {
		acks += st.AcksReceived
		pkts += st.PacketsSent
	}
	if pkts > 0 {
		res.AcksPerPacket = float64(acks) / float64(pkts)
	}
	return res
}

// reverseBase is the shared sizing of the routed-reverse scenarios: the
// single-hop parking-lot forward path (10 Mb/s DropTail-64, 10 ms) with
// a routed one-hop reverse path completing a 40 ms base RTT
// (10 + 5 + 5 + 20 ms, queueing and transmission excluded).
func reverseBase(sz Sizing) RevSimConfig {
	cfg := RevSimConfig{
		Capacity:      1.25e6,
		Buffer:        64,
		FwdDelay:      0.01,
		AccessDelay:   0.005,
		RevExtra:      0.02,
		RevCapacities: []float64{1.25e6},
		RevBuffer:     64,
		RevHopDelay:   0.005,
		NTFRC:         2,
		NTCP:          2,
		L:             8,
		Comprehensive: true,
		Duration:      300,
		Warmup:        50,
		RevJitter:     0.2,
	}
	if sz.SimFactor > 0 && sz.SimFactor < 1 {
		cfg.Duration *= sz.SimFactor
		cfg.Warmup *= sz.SimFactor
	}
	cfg.Shards = sz.Shards
	return cfg
}

// revCell pairs one routed-reverse run with the sweep metadata its
// table rows need.
type revCell struct {
	name string
	cfg  RevSimConfig
	x    float64 // the swept parameter (load, back flows, or ratio)
}

// revJob wraps one routed-reverse run as a runner job.
func revJob(name string, cfg RevSimConfig) runner.Job {
	return runner.Job{
		Name: name,
		Seed: cfg.Seed,
		Run:  func(context.Context) any { return RunRevSim(cfg) },
	}
}

// revGridPlan instantiates gridPlan for routed-reverse sweeps.
func revGridPlan(t *Table, cells []revCell,
	rows func(c revCell, res RevSimResult) [][]float64) ([]runner.Job, FoldFunc) {
	return gridPlan(t, cells, func(c revCell) runner.Job { return revJob(c.name, c.cfg) }, rows)
}

// planRevCross sweeps unresponsive cross-traffic load on a tight
// reverse bottleneck (1/20 of the forward capacity): as the reverse
// link saturates, feedback reports and ACKs are queued and dropped, the
// TFRC senders fall back to no-feedback halving, and the ratio column
// tracks whether TFRC's conservativeness survives a degraded control
// loop — the regime the paper's long-run claims assume away.
func planRevCross(sz Sizing) ([]runner.Job, FoldFunc) {
	t := &Table{
		Name: "revcross",
		Note: "reverse-bottleneck cross traffic: TFRC/TCP under swept feedback-path load",
		Columns: []string{"rev_load", "fb_drop", "nf_halvings", "p_tfrc",
			"x_tfrc", "x_tcp", "ratio", "acks_per_pkt"},
	}
	var cells []revCell
	seed := uint64(3040)
	for _, load := range []float64{0, 0.5, 0.9, 1.2} {
		seed++
		cfg := reverseBase(sz)
		cfg.RevCapacities = []float64{cfg.Capacity / 20}
		cfg.RevCrossLoad = load
		cfg.Seed = seed
		cells = append(cells, revCell{
			name: fmt.Sprintf("revcross load=%.1f", load),
			cfg:  cfg, x: load,
		})
	}
	return revGridPlan(t, cells, func(c revCell, res RevSimResult) [][]float64 {
		if res.TCP.Throughput <= 0 {
			return nil
		}
		return [][]float64{{c.x, res.RevDropRate, float64(res.NoFeedbackHalvings),
			res.TFRC.LossEventRate, res.TFRC.Throughput, res.TCP.Throughput,
			res.TFRC.Throughput / res.TCP.Throughput, res.AcksPerPacket}}
	})
}

// planAckShare puts data and acknowledgments in the same queues: the
// reverse path has the forward capacity, and a swept number of
// opposing-direction TCP flows fill it with data that the primary
// flows' feedback and ACKs must compete with (while the back flows'
// own ACKs ride the forward bottleneck) — the classic two-way-traffic
// ack-compression experiment.
func planAckShare(sz Sizing) ([]runner.Job, FoldFunc) {
	t := &Table{
		Name: "ackshare",
		Note: "shared forward/reverse bottlenecks: acks competing with opposing data",
		Columns: []string{"back_flows", "x_tfrc", "x_tcp", "x_back",
			"rev_drop", "acks_per_pkt", "ratio"},
	}
	var cells []revCell
	seed := uint64(3140)
	for _, back := range []int{0, 1, 2, 4} {
		seed++
		cfg := reverseBase(sz)
		cfg.BackTCP = back
		cfg.Seed = seed
		cells = append(cells, revCell{
			name: fmt.Sprintf("ackshare back=%d", back),
			cfg:  cfg, x: float64(back),
		})
	}
	return revGridPlan(t, cells, func(c revCell, res RevSimResult) [][]float64 {
		if res.TCP.Throughput <= 0 {
			return nil
		}
		return [][]float64{{c.x, res.TFRC.Throughput, res.TCP.Throughput,
			res.Back.Throughput, res.RevDropRate, res.AcksPerPacket,
			res.TFRC.Throughput / res.TCP.Throughput}}
	})
}

// planAsymRev probes asymmetric-capacity reverse chains (Table I's
// access links are far from symmetric): the reverse path narrows to a
// swept fraction of the forward capacity across one or two hops, and
// the TFRC class's normalized throughput x̄/f(p, r) is evaluated at its
// own measured loss-event rate and RTT — checking whether feedback
// starvation pushes the protocol off the formula.
func planAsymRev(sz Sizing) ([]runner.Job, FoldFunc) {
	t := &Table{
		Name: "asymrev",
		Note: "asymmetric-capacity reverse chains: x̄/f(p,r) under narrowing feedback paths",
		Columns: []string{"rev_hops", "rev_ratio", "fb_drop", "p_tfrc",
			"x_tfrc", "normalized"},
	}
	var cells []revCell
	seed := uint64(3240)
	for _, hops := range []int{1, 2} {
		for _, ratio := range []float64{0.5, 0.1, 0.02} {
			seed++
			cfg := reverseBase(sz)
			// Capacities descend geometrically to ratio·Capacity at the
			// last reverse hop.
			caps := make([]float64, hops)
			for i := range caps {
				caps[i] = cfg.Capacity * math.Pow(ratio, float64(i+1)/float64(hops))
			}
			cfg.RevCapacities = caps
			cfg.Seed = seed
			cells = append(cells, revCell{
				name: fmt.Sprintf("asymrev hops=%d ratio=%.2f", hops, ratio),
				cfg:  cfg, x: ratio,
			})
		}
	}
	return revGridPlan(t, cells, func(c revCell, res RevSimResult) [][]float64 {
		cls := res.TFRC
		if cls.Events == 0 || cls.MeanRTT <= 0 {
			return nil
		}
		f := formula.NewPFTKStandard(formula.ParamsForRTT(cls.MeanRTT))
		norm := cls.Throughput / f.Rate(math.Max(cls.LossEventRate, 1e-9))
		return [][]float64{{float64(len(c.cfg.RevCapacities)), c.x,
			res.RevDropRate, cls.LossEventRate, cls.Throughput, norm}}
	})
}

func init() {
	register(&Scenario{Name: "revcross",
		Note:    "reverse-bottleneck cross traffic: feedback loss at swept reverse loads",
		Plan:    planRevCross,
		Sharded: true})
	register(&Scenario{Name: "ackshare",
		Note:    "shared forward/reverse bottlenecks: acks competing with opposing data",
		Plan:    planAckShare,
		Sharded: true})
	register(&Scenario{Name: "asymrev",
		Note:    "asymmetric-capacity reverse chains: conservativeness under feedback starvation",
		Plan:    planAsymRev,
		Sharded: true})
}
