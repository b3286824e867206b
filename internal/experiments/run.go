package experiments

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/arrivals"
	"repro/internal/des"
	"repro/internal/fault"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/shard"
	"repro/internal/tcp"
	"repro/internal/tfrc"
	"repro/internal/topology"
)

// runSpec declares one packet-level run: the network as nodes, links
// and default routes, the static flow population as ordered groups, an
// optional Poisson probe and on/off cross source, and the adversity
// layered on top (fault plan, recovery watch, churn classes). RunSim,
// RunTopoSim and RunRevSim each translate their config into a runSpec
// and map run's output back onto their result type; run is the only
// place a packet-level simulation is built, stepped and collected.
//
// Link and node ids are declaration indices. The run RNG (seeded by
// seed) is drawn in declaration order: one split per RED queue, the
// reverse-jitter seed, then per group each TFRC flow's seed and every
// flow's start offset (TFRC flows of a watched run arm their recovery
// watcher right after), then the probe (seed, start) and the cross
// source (seed, start). Flow ids follow the same order; churn flow ids
// start after the last static flow.
type runSpec struct {
	seed             uint64
	warmup, duration float64
	// shards bounds the partition; <= 1 runs on one domain.
	shards int
	// epochs is the run's own epoch-log floor (TopoSimConfig.ForceEpochs).
	epochs int

	nodes []string
	links []linkDecl
	// route is the default forward route. revRoute, when non-nil, is the
	// default routed reverse path; nil leaves flows on pure-delay reverse
	// paths.
	route, revRoute []topology.LinkID
	// jitter is the reverse-path delay jitter fraction (0: off).
	jitter float64

	// groups are the static flows in flow-id order. groups[0] and
	// groups[1] are the primary TFRC and TCP classes, the ones the
	// metrics registry reports.
	groups []flowGroup
	probe  probeDecl
	cross  crossDecl

	faults *fault.Plan
	watch  *RecoveryWatch
	churn  []arrivals.Class

	// label names the run's snapshot file; "" opts the run out of
	// checkpointing and resuming (a labeled run may declare no probe or
	// cross source: neither is part of a snapshot). resume is the
	// directory to resume from.
	label, resume string
	// digest folds the run's config with its shard and epoch counts into
	// the snapshot's config digest (needed whenever label is set).
	digest func(shards, epochs int) uint64
}

// linkDecl is one directed link. Its queue is a DropTail of buffer
// packets or a paper-parameter RED sized from bdp packets, unless
// unbounded is set.
type linkDecl struct {
	from, to    topology.NodeID
	rate, delay float64
	queue       QueueKind
	buffer      int
	bdp         float64
	unbounded   bool
}

// flowProto selects a flow group's transport.
type flowProto uint8

const (
	protoTFRC flowProto = iota
	protoTCP
)

// flowGroup is n persistent flows of one transport.
type flowGroup struct {
	// name labels the group in validation errors.
	name  string
	proto flowProto
	n     int
	// routes, when non-nil, holds each flow's forward route (length n);
	// nil rides the default route. rev, when non-nil, routes every
	// flow's feedback; nil takes the default reverse path.
	routes [][]topology.LinkID
	rev    []topology.LinkID
	// access is the one-way delay past the last forward hop and revDelay
	// the reverse delay (the residual after rev when routed). spread > 0
	// scales flow i's two delays by 1 + spread·i/(n-1).
	access, revDelay, spread float64
	// tfrc is a TFRC group's protocol config; each flow draws its Seed.
	tfrc tfrc.Config
}

// stretch is flow i's terminal-delay factor under the group's RTT spread.
func (g *flowGroup) stretch(i int) float64 {
	if g.spread <= 0 || g.n <= 1 {
		return 1
	}
	return 1 + g.spread*float64(i)/float64(g.n-1)
}

// probeDecl is the optional Poisson probe on the default route.
type probeDecl struct {
	// rate is in packets/second; 0 declares no probe.
	rate, rttGuess, revDelay float64
}

// crossDecl is the optional heavy-tailed on/off source on route: bursts
// at peak bytes/s offering load·base bytes/s on average.
type crossDecl struct {
	route            []topology.LinkID
	load, peak, base float64
}

// finite returns an error naming the field unless v is finite and ok.
func finite(field string, v float64, ok bool, want string) error {
	if math.IsNaN(v) || math.IsInf(v, 0) || !ok {
		return fmt.Errorf("%s = %v, want a finite value%s", field, v, want)
	}
	return nil
}

// firstErr returns the first non-nil error.
func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// check validates one link's rate, delay and queue.
func (l *linkDecl) check() error {
	err := firstErr(
		finite("rate", l.rate, l.rate > 0, " > 0"),
		finite("delay", l.delay, l.delay >= 0, " >= 0"))
	switch {
	case err != nil || l.unbounded:
	case l.queue == DropTail:
		if l.buffer < 1 {
			err = fmt.Errorf("DropTail buffer = %d, want >= 1", l.buffer)
		}
	case l.queue == RED:
		err = finite("RED BDPPackets", l.bdp, l.bdp > 0, " > 0")
	default:
		err = fmt.Errorf("queue kind %d is unknown", l.queue)
	}
	return err
}

// check validates one flow group's count, delays, spread and window.
func (g *flowGroup) check() error {
	if g.n < 0 {
		return fmt.Errorf("count = %d, want >= 0", g.n)
	}
	if g.proto == protoTFRC && g.tfrc.Window < 1 {
		return fmt.Errorf("loss-interval window L = %d, want >= 1", g.tfrc.Window)
	}
	return firstErr(
		finite("access delay", g.access, g.access >= 0, " >= 0"),
		finite("reverse delay", g.revDelay, g.revDelay >= 0, " >= 0"),
		finite("RTT spread", g.spread, g.spread >= 0, " >= 0"))
}

// validate rejects a spec that would hang, misbehave or silently drop a
// setting: non-finite or out-of-range durations, rates, delays, jitter,
// loads and probe rates, and impossible flow populations. The error
// names the offending field and its value. Routes are checked by the
// cluster as they are declared.
func (s *runSpec) validate() error {
	if err := firstErr(
		finite("Duration", s.duration, s.duration > 0, " > 0"),
		finite("Warmup", s.warmup, s.warmup >= 0, " >= 0"),
		finite("RevJitter", s.jitter, s.jitter >= 0 && s.jitter < 1, " in [0, 1)"),
		finite("probe rate", s.probe.rate, s.probe.rate >= 0, " >= 0"),
		finite("cross load", s.cross.load, s.cross.load >= 0, " >= 0"),
	); err != nil {
		return err
	}
	for i := range s.links {
		l := &s.links[i]
		if err := l.check(); err != nil {
			return fmt.Errorf("link %d (%s->%s) %w", i, s.nodes[l.from], s.nodes[l.to], err)
		}
	}
	for gi := range s.groups {
		g := &s.groups[gi]
		if err := g.check(); err != nil {
			return fmt.Errorf("%s flows: %w", g.name, err)
		}
	}
	if s.groups[0].n+s.groups[1].n == 0 {
		return errors.New("need at least one TFRC or TCP flow")
	}
	if w := s.watch; w != nil {
		if err := firstErr(
			finite("Watch.Down", w.Down, true, ""),
			finite("Watch.Up", w.Up, true, ""),
			finite("Watch.Frac", w.Frac, true, ""),
			finite("Watch.Interval", w.Interval, true, ""),
		); err != nil {
			return err
		}
	}
	for _, cl := range s.churn {
		if len(cl.FwdHops) == 0 {
			return fmt.Errorf("churn class %q has no route (a Reverse class needs MirrorRev)", cl.Name)
		}
	}
	return nil
}

// newQueue builds the link's queue discipline; a RED queue splits its
// drop lottery off the run RNG.
func (l *linkDecl) newQueue(rnd *rng.RNG) netsim.Queue {
	switch {
	case l.unbounded:
		return netsim.NewUnbounded()
	case l.queue == RED:
		return netsim.NewRED(netsim.PaperRED(l.bdp), l.rate, rnd.Split())
	}
	return netsim.NewDropTail(l.buffer)
}

// simRun is one built run: the cluster and every stateful component a
// snapshot covers (see checkpoint.go for the section order).
type simRun struct {
	spec     *runSpec
	env      *shard.Cluster
	ob       *obsRun
	armed    *fault.Armed
	churn    *arrivals.Engine
	watchers []*rateWatch
	groups   []groupRun
	probe    *probeHandle
	// baseRTT is each static flow's no-queueing RTT, by flow id.
	baseRTT []float64
	end     float64

	// saving is set when the run writes snapshots; digest whenever it
	// writes or resumes one.
	saving bool
	digest uint64
}

// groupRun holds one flow group's endpoint pairs in attachment order.
type groupRun struct {
	tfrc []tfrcFlow
	tcp  []tcpFlow
}

type tfrcFlow struct {
	snd *tfrc.Sender
	rcv *tfrc.Receiver
}

type tcpFlow struct {
	snd *tcp.Sender
	rcv *tcp.Receiver
}

// runOut is what a run leaves behind once its cluster is recycled:
// nothing in it aliases cluster memory.
type runOut struct {
	groups   []groupOut
	probe    ClassStats
	baseRTT  []float64
	links    []linkOut
	recovery []float64
	churn    []arrivals.ClassResult
	fired    uint64
	obs      *RunObs
}

// groupOut is one flow group's class aggregate and per-flow stats.
type groupOut struct {
	class ClassStats
	tfrc  []tfrc.Stats
	tcp   []tcp.Stats
}

// linkOut is one link's whole-run counters (warmup included).
type linkOut struct {
	forwarded, accepted, queueDrops, faultDrops int64
	// faulted is set when a fault plan hooked the link.
	faulted bool
	// highWater is an Unbounded queue's deepest occupancy (0 otherwise).
	highWater int
}

// queueDrops reads a queue discipline's drop counter, when it has one.
func queueDrops(q netsim.Queue) int64 {
	switch d := q.(type) {
	case *netsim.DropTail:
		return d.Drops
	case *netsim.RED:
		return d.Drops
	}
	return 0
}

// run validates the spec, builds it in a pooled cluster, runs the
// warmup and the measured window, and collects the results. It panics
// with the validation error on an invalid spec. It is fully
// deterministic in the spec.
func (s *runSpec) run() runOut {
	if err := s.validate(); err != nil {
		panic("experiments: invalid run config: " + err.Error())
	}
	// The graph is declared inside a pooled cluster (see exec.go),
	// partitioned into at most s.shards domains; wheels, packet pools
	// and flow records are reused across replications.
	env := getCluster()
	rnd := rng.New(s.seed)
	for _, name := range s.nodes {
		env.AddNode(name)
	}
	for i := range s.links {
		l := &s.links[i]
		env.AddLink(l.from, l.to, l.rate, l.delay, l.newQueue(rnd))
	}
	env.SetDefaultRoute(s.route...)
	if s.revRoute != nil {
		env.SetDefaultReverseRoute(s.revRoute...)
	}
	if s.jitter > 0 {
		env.SetReverseJitter(s.jitter, rnd.Uint64())
	}
	env.Partition(s.shards)
	defer putCluster(env, publishLive(env))
	// Tracer attach sits between the partition (shards exist, links are
	// owned) and both the fault arming and endpoint construction, which
	// each resolve their domain's tracer once. Cap <= 0 (tracing off)
	// leaves every tracer nil.
	env.AttachTracers(Observe.TraceCap)
	r := &simRun{spec: s, env: env, ob: newObsRun(env, s.epochs), end: s.warmup + s.duration}
	// Arm the fault plan right after the partition: every timed
	// transition is scheduled at declaration time, in plan order, on the
	// scheduler that owns its link — the same (time, arming-key, seq)
	// order at every shard count. A nil plan arms nothing and consumes
	// no randomness.
	armed, err := fault.Arm(env, s.faults)
	if err != nil {
		panic(fmt.Sprintf("experiments: invalid fault plan: %v", err))
	}
	r.armed = armed
	r.attach(rnd)
	r.measure()
	return r.collect()
}

// attach builds every static flow, the probe, the cross source and the
// churn engine, drawing from the run RNG in declaration order.
func (r *simRun) attach(rnd *rng.RNG) {
	s, env := r.spec, r.env
	r.groups = make([]groupRun, len(s.groups))
	nflows := 0
	for _, g := range s.groups {
		nflows += g.n
	}
	r.baseRTT = make([]float64, 0, nflows)
	flow := 0
	for gi := range s.groups {
		g, gr := &s.groups[gi], &r.groups[gi]
		if g.proto == protoTFRC {
			gr.tfrc = make([]tfrcFlow, 0, g.n)
		} else {
			gr.tcp = make([]tcpFlow, 0, g.n)
		}
		for i := 0; i < g.n; i++ {
			if g.routes != nil {
				env.SetRoute(flow, g.routes[i]...)
			}
			if g.rev != nil {
				env.SetReverseRoute(flow, g.rev...)
			}
			k := g.stretch(i)
			ss, rs := env.FlowEnv(flow)
			var start des.Event
			var watched *tfrc.Sender
			if g.proto == protoTFRC {
				c := g.tfrc
				c.Seed = rnd.Uint64()
				snd, rcv := tfrc.NewFlowOn(ss.Sched(), ss, rs.Sched(), rs, flow, c,
					g.access*k, g.revDelay*k)
				gr.tfrc = append(gr.tfrc, tfrcFlow{snd, rcv})
				start, watched = snd.Start, snd
			} else {
				snd, rcv := tcp.NewFlowOn(ss.Sched(), ss, rs.Sched(), rs, flow, tcp.DefaultConfig(),
					g.access*k, g.revDelay*k)
				gr.tcp = append(gr.tcp, tcpFlow{snd, rcv})
				start = snd.Start
			}
			r.baseRTT = append(r.baseRTT, env.BaseRTT(flow))
			// Start at a seed-drawn offset inside the first half of the
			// warmup (capped at 5 s), breaking phase locking between flows
			// that would otherwise start simultaneously.
			ss.Sched().At(rnd.Float64()*math.Min(s.warmup/2, 5), start)
			if watched != nil && s.watch != nil {
				r.watchers = append(r.watchers, newRateWatch(ss.Sched(), watched.Rate, *s.watch, r.end))
			}
			flow++
		}
	}
	if s.probe.rate > 0 {
		ss, _ := env.FlowEnv(flow)
		r.probe = newProbe(ss.Sched(), ss, flow, s.probe.rate, s.probe.rttGuess, rnd.Uint64(), s.probe.revDelay)
		ss.Sched().At(rnd.Float64(), r.probe.start)
		flow++
	}
	if c := s.cross; c.load > 0 {
		// Size the on/off source so its mean rate offers the target load:
		// bursts at the peak rate, mean 20 packets, off time solved from
		// the load.
		const meanBurst, pktSize = 20.0, 1000.0
		burstBytes := meanBurst * pktSize
		meanOff := burstBytes/(c.load*c.base) - burstBytes/c.peak
		if meanOff <= 0 {
			meanOff = 1e-3
		}
		env.AttachSink(flow, c.route...)
		cs := env.SinkEnv(c.route...)
		ct := netsim.NewCrossTraffic(cs.Sched(), cs, flow, c.peak, meanBurst, 1.5,
			meanOff, int(pktSize), rnd.Uint64())
		cs.Sched().At(rnd.Float64(), ct.Start)
		flow++
	}
	// Churn classes arm after every static flow (their id block starts at
	// flow) and before the first Run: the cluster's flow table must be
	// sized and its cross-shard pure-delay reverse channels declared
	// while it is still unsealed.
	if len(s.churn) > 0 {
		r.churn = arrivals.NewEngine(env, flow, s.churn)
		lo, count := r.churn.FlowRange()
		env.ReserveFlows(lo + count)
		for _, cl := range s.churn {
			env.DeclareReverseChannel(cl.FwdHops, cl.RevDelay)
		}
		r.churn.Arm()
	}
}

// resetStats restarts every static sender's and the probe's
// measurement window when warmup ends; churn flows attach later and
// measure from their own start.
func (r *simRun) resetStats() {
	for i := range r.groups {
		gr := &r.groups[i]
		for _, f := range gr.tfrc {
			f.snd.ResetStats()
		}
		for _, f := range gr.tcp {
			f.snd.ResetStats()
		}
	}
	if r.probe != nil {
		r.probe.resetStats()
	}
}

// collect copies the run's results out of the cluster.
func (r *simRun) collect() runOut {
	s, env := r.spec, r.env
	out := runOut{groups: make([]groupOut, len(s.groups)), baseRTT: r.baseRTT, fired: env.Fired()}
	for i := range s.groups {
		gr, o := &r.groups[i], &out.groups[i]
		if s.groups[i].proto == protoTFRC {
			o.tfrc = make([]tfrc.Stats, len(gr.tfrc))
			for j, f := range gr.tfrc {
				o.tfrc[j] = f.snd.Stats()
			}
			o.class = aggregateTFRC(o.tfrc, s.groups[i].tfrc.Window)
		} else {
			o.tcp = make([]tcp.Stats, len(gr.tcp))
			for j, f := range gr.tcp {
				o.tcp[j] = f.snd.Stats()
			}
			o.class = aggregateTCP(o.tcp)
		}
	}
	out.links = make([]linkOut, env.Links())
	for id := range out.links {
		l := env.Link(topology.LinkID(id))
		lo := &out.links[id]
		lo.forwarded, lo.accepted, lo.faultDrops = l.Forwarded, l.Accepted(), l.FaultDrops
		lo.queueDrops = queueDrops(l.Queue())
		lo.faulted = l.Fault != nil
		if u, ok := l.Queue().(*netsim.Unbounded); ok {
			lo.highWater = u.HighWater
		}
	}
	if s.watch != nil {
		out.recovery = make([]float64, len(r.watchers))
		for i, rw := range r.watchers {
			out.recovery[i] = rw.recovery()
		}
	}
	if r.churn != nil {
		out.churn = r.churn.Results(r.end)
	}
	if r.probe != nil {
		out.probe = r.probe.stats()
	}
	out.obs = r.ob.collect(out.groups[0].tfrc, out.groups[1].tcp)
	if LeakCheck {
		if err := env.CheckLeaks(); err != nil {
			panic(err)
		}
	}
	return out
}
