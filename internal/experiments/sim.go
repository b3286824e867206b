package experiments

import (
	"repro/internal/des"
	"repro/internal/estimator"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/tcp"
	"repro/internal/tfrc"
	"repro/internal/topology"
)

// QueueKind selects the bottleneck queue discipline.
type QueueKind int

// Queue disciplines.
const (
	// DropTail is a plain FIFO tail-drop queue.
	DropTail QueueKind = iota
	// RED is random early detection with the paper's parameters.
	RED
)

// SimConfig describes one dumbbell simulation: the bottleneck, the flow
// mix (N TFRC + N TCP pairs, optionally a Poisson probe), and the
// measurement window.
type SimConfig struct {
	// Capacity is the bottleneck rate in bytes/second.
	Capacity float64
	// Queue selects the bottleneck discipline.
	Queue QueueKind
	// Buffer is the DropTail capacity in packets (ignored for RED).
	Buffer int
	// BDPPackets sizes the RED thresholds (ignored for DropTail).
	BDPPackets float64
	// BaseDelay is the bottleneck one-way propagation delay in seconds.
	BaseDelay float64
	// RevDelay is the uncongested reverse-path delay in seconds.
	RevDelay float64
	// NTFRC and NTCP are the numbers of TFRC and TCP flows.
	NTFRC, NTCP int
	// ProbeRate, when positive, adds one Poisson probe at this rate in
	// packets/second.
	ProbeRate float64
	// L is the TFRC loss-interval window.
	L int
	// Comprehensive toggles TFRC's comprehensive-control element.
	Comprehensive bool
	// TFRCFormula selects the TFRC throughput formula.
	TFRCFormula tfrc.FormulaKind
	// Duration and Warmup are the measured and discarded sim seconds.
	Duration, Warmup float64
	// Seed drives all randomness in the run.
	Seed uint64
	// RevJitter randomizes reverse-path delays (fraction, see
	// shard.Cluster.SetReverseJitter).
	RevJitter float64
	// CrossLoad, when positive, adds heavy-tailed on/off background
	// traffic offering this fraction of the bottleneck capacity.
	CrossLoad float64
	// HistoryDiscounting enables RFC 3448 §5.5 discounting in TFRC.
	HistoryDiscounting bool
}

// ClassStats aggregates one protocol class over all its flows.
type ClassStats struct {
	// Throughput is the mean per-flow send rate in packets/second.
	Throughput float64
	// LossEventRate is total loss events over total packets sent.
	LossEventRate float64
	// MeanRTT is the event-count-weighted mean RTT in seconds.
	MeanRTT float64
	// CovNorm is cov[θ0, θ̂0]·p², pooled over flows (TFRC only).
	CovNorm float64
	// Events is the total loss events across flows.
	Events int64
	// Flows is the number of flows in the class.
	Flows int
}

// SimResult holds per-class aggregates of one run.
type SimResult struct {
	TFRC, TCP, Poisson ClassStats
	// TCPPerFlow keeps each TCP flow's stats for scatter plots (Fig 9).
	TCPPerFlow []tcp.Stats
	// TFRCPerFlow keeps each TFRC flow's stats.
	TFRCPerFlow []tfrc.Stats
	// EventsFired is the number of discrete events the scheduler executed
	// over the whole run (warmup included) — the denominator for
	// events/second throughput measurements of the simulator itself.
	EventsFired uint64
	// Obs is the run's observability capture (nil unless the process-
	// wide Observe options enable one).
	Obs *RunObs
}

// The dumbbell's nodes and its one-link route; the cluster copies
// both, so every run shares them.
var (
	dumbbellNodes = []string{"ingress", "egress"}
	dumbbellRoute = []topology.LinkID{0}
)

// RunSim executes the configured dumbbell simulation and returns the
// per-class aggregates. It is fully deterministic in cfg.Seed.
func RunSim(cfg SimConfig) SimResult {
	tc := tfrc.DefaultConfig()
	tc.Window = cfg.L
	tc.Comprehensive = cfg.Comprehensive
	tc.HistoryDiscounting = cfg.HistoryDiscounting
	tc.Formula = cfg.TFRCFormula
	// The paper's dumbbell: one bottleneck from ingress to egress, flows
	// on pure-delay reverse paths, cross traffic on a sink flow over the
	// bottleneck.
	spec := runSpec{
		seed: cfg.Seed, warmup: cfg.Warmup, duration: cfg.Duration,
		nodes: dumbbellNodes,
		links: []linkDecl{{from: 0, to: 1, rate: cfg.Capacity, delay: cfg.BaseDelay,
			queue: cfg.Queue, buffer: cfg.Buffer, bdp: cfg.BDPPackets}},
		route:  dumbbellRoute,
		jitter: cfg.RevJitter,
		groups: []flowGroup{
			{name: "TFRC", proto: protoTFRC, n: cfg.NTFRC, revDelay: cfg.RevDelay, tfrc: tc},
			{name: "TCP", proto: protoTCP, n: cfg.NTCP, revDelay: cfg.RevDelay},
		},
		probe: probeDecl{rate: cfg.ProbeRate, rttGuess: 2*cfg.BaseDelay + cfg.RevDelay,
			revDelay: cfg.RevDelay},
		cross: crossDecl{route: dumbbellRoute, load: cfg.CrossLoad,
			peak: cfg.Capacity / 2, base: cfg.Capacity},
	}
	out := spec.run()
	return SimResult{
		TFRC: out.groups[0].class, TCP: out.groups[1].class, Poisson: out.probe,
		TCPPerFlow:  out.groups[1].tcp,
		TFRCPerFlow: out.groups[0].tfrc,
		EventsFired: out.fired,
		Obs:         out.obs,
	}
}

func aggregateTFRC(perFlow []tfrc.Stats, L int) ClassStats {
	var cs ClassStats
	cs.Flows = len(perFlow)
	if len(perFlow) == 0 {
		return cs
	}
	var pkts, events int64
	var xSum, rttSum float64
	var covAcc stats.Cov
	total := 0
	for _, st := range perFlow {
		total += len(st.LossIntervals)
	}
	pAll := make([]float64, 0, total)
	for _, st := range perFlow {
		pkts += st.PacketsSent
		events += st.LossEvents
		xSum += st.Throughput
		rttSum += st.MeanRTT
		// Reconstruct the estimator trajectory from the interval series
		// to measure cov[θ0, θ̂0].
		feedCov(&covAcc, st.LossIntervals, L)
		pAll = append(pAll, st.LossIntervals...)
	}
	cs.Throughput = xSum / float64(len(perFlow))
	cs.MeanRTT = rttSum / float64(len(perFlow))
	cs.Events = events
	if pkts > 0 {
		cs.LossEventRate = float64(events) / float64(pkts)
	}
	if len(pAll) > 0 && covAcc.N() > 1 {
		meanTheta := stats.Mean(pAll)
		p := 1 / meanTheta
		cs.CovNorm = covAcc.Covariance() * p * p
	}
	return cs
}

// feedCov replays the TFRC weight average over an interval series and
// accumulates (θ_n, θ̂_n) pairs.
func feedCov(acc *stats.Cov, intervals []float64, L int) {
	if len(intervals) <= L {
		return
	}
	est := estimator.NewLossIntervalEstimator(estimator.TFRCWeights(L))
	for i, th := range intervals {
		if i >= L {
			acc.Add(th, est.Estimate())
		}
		est.Observe(th)
	}
}

func aggregateTCP(perFlow []tcp.Stats) ClassStats {
	var cs ClassStats
	cs.Flows = len(perFlow)
	if len(perFlow) == 0 {
		return cs
	}
	var pkts, events int64
	var xSum, rttSum float64
	for _, st := range perFlow {
		pkts += st.PacketsSent
		events += st.LossEvents
		xSum += st.Throughput
		rttSum += st.MeanRTT
	}
	cs.Throughput = xSum / float64(len(perFlow))
	cs.MeanRTT = rttSum / float64(len(perFlow))
	cs.Events = events
	if pkts > 0 {
		cs.LossEventRate = float64(events) / float64(pkts)
	}
	return cs
}

// probeHandle wraps the cbr probe without importing it (the probe here
// is a minimal Poisson source; keeping it local avoids an import cycle
// risk and keeps the class-stats shape uniform).
type probeHandle struct {
	sched    *des.Scheduler
	net      netsim.Network
	flow     int
	rate     float64
	random   *rng.RNG
	rttGuess float64

	nextSeq    int64
	expected   int64
	events     *netsim.LossEventCounter
	pktsSent   int64
	eventsBase int64
	pktsBase   int64
	measStart  float64
	sendNextFn des.Event
}

func newProbe(sched *des.Scheduler, net netsim.Network, flow int, rate, rttGuess float64, seed uint64, revDelay float64) *probeHandle {
	p := &probeHandle{
		sched: sched, net: net, flow: flow, rate: rate,
		random: rng.New(seed), rttGuess: rttGuess,
	}
	p.events = netsim.NewLossEventCounter(func() float64 { return p.rttGuess })
	p.sendNextFn = p.sendNext
	net.AttachFlow(flow, netsim.EndpointFunc(func(*netsim.Packet) {}),
		netsim.EndpointFunc(p.receive), 0, revDelay)
	return p
}

func (p *probeHandle) start() { p.sendNext() }

func (p *probeHandle) sendNext() {
	p.pktsSent++
	pkt := p.net.GetPacket()
	pkt.Flow = p.flow
	pkt.Seq = p.nextSeq
	pkt.Size = 1000
	pkt.SentAt = p.sched.Now()
	pkt.Kind = netsim.Data
	p.net.SendForward(pkt)
	p.nextSeq++
	p.sched.After(p.random.Exp(p.rate), p.sendNextFn)
}

func (p *probeHandle) receive(pkt *netsim.Packet) {
	if pkt.Kind != netsim.Data {
		return
	}
	if pkt.Seq > p.expected {
		for lost := p.expected; lost < pkt.Seq; lost++ {
			p.events.OnLoss(p.sched.Now(), lost)
		}
	}
	if pkt.Seq >= p.expected {
		p.expected = pkt.Seq + 1
	}
}

func (p *probeHandle) resetStats() {
	p.measStart = p.sched.Now()
	p.pktsBase = p.pktsSent
	p.eventsBase = p.events.Events
}

func (p *probeHandle) stats() ClassStats {
	cs := ClassStats{Flows: 1}
	pkts := p.pktsSent - p.pktsBase
	cs.Events = p.events.Events - p.eventsBase
	dur := p.sched.Now() - p.measStart
	if dur > 0 {
		cs.Throughput = float64(pkts) / dur
	}
	if pkts > 0 {
		cs.LossEventRate = float64(cs.Events) / float64(pkts)
	}
	return cs
}
