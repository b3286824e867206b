// Package shard is the packet-level network engine. It assembles the
// netsim primitives (links, queues, endpoints) into network graphs —
// nodes joined by directed links, per-flow static source routes across
// any number of congested hops, per-flow round-trip accounting — and
// executes one simulation of such a graph space-parallel: the node
// graph is partitioned into K domains, each domain owns a private
// des.Scheduler (timing wheel) and packet freelist, and the domains
// advance in lockstep through conservative lookahead windows. The
// paper's dumbbell is the two-node special case (Cluster.Dumbbell);
// parking-lot chains, multi-bottleneck paths and routed reverse paths
// are built from the same pieces. A partition with one domain is the
// serial engine: one scheduler, no windows, no handoffs.
//
// # Partitioning rule
//
// Every node belongs to exactly one shard; a link belongs to the shard
// of its source node. A link whose destination node lives in another
// shard is a cut link: its serialization still happens on the owning
// shard, but instead of entering the propagation pipeline the packet is
// handed off (netsim.Link.Handoff) into an outbound bundle stamped with
// its arrival time, handoff-now + propagation delay. Because forwarding
// always continues in the shard of the node where a packet physically
// is, every other Send in the system stays shard-local (see Cluster's
// arrive). The partitioner (Partition) never cuts a zero-delay channel:
// zero-delay links and zero-latency pure-delay reverse paths co-locate
// their endpoints.
//
// # Lookahead horizon
//
// The synchronization horizon Δ is the minimum latency over all
// cross-shard channels: the propagation delays of cut links, plus, for
// flows whose pure-delay reverse path crosses shards, the minimum
// jittered reverse delay revDelay·(1−jitter). A message emitted during
// the window [t, t+Δ) arrives no earlier than t+Δ, so each shard can
// execute a whole window without hearing from its peers — the classic
// barrier-at-horizon conservative scheme.
//
// # Deterministic merge order
//
// At each barrier every shard drains the bundles addressed to it in
// (src-shard, emission-seq) order and schedules each message at its
// exact arrival time, carrying the source clock at emission as the
// causal tie-break key (des.AtOrigin). Within a shard, simultaneous
// events fire in (origin, scheduling-seq) order, so an injected arrival
// that lands on the exact instant of a window-local event keeps the
// position its emission time would have earned it on a one-domain run —
// such ties are systematic, not exotic, whenever link rates put
// serialization times on a common float lattice. Events are therefore
// totally ordered by (time, origin, src-shard, seq) — independent of
// wall-clock interleaving — and the run is bit-identical to the
// one-domain execution of the same graph, at any shard count, whether
// the shards run on one goroutine (GOMAXPROCS=1) or K.
package shard

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/des"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/rng"
)

// flowRec is the per-flow routing entry: the forward route, the
// optional routed reverse path, the terminal delays, the endpoints and
// their shard placement.
type flowRec struct {
	route []*netsim.Link
	// revRoute, when non-empty, carries the flow's reverse packets hop
	// by hop through real queues; revDelay then becomes the remaining
	// pure delay after the last reverse hop. Empty keeps the pure-delay
	// reverse path (length, not nil-ness, is the discriminator: pooled
	// records recycle their slices at zero length).
	revRoute  []*netsim.Link
	fwdExtra  float64
	revDelay  float64
	sender    netsim.Endpoint
	receiver  netsim.Endpoint
	delivered int64
	// jitter is the flow's private reverse-jitter stream, seeded from
	// (cluster jitter seed, flow id) at attach time. Per-flow streams —
	// rather than one network-wide RNG consumed in global event order —
	// make each flow's jitter sequence independent of event interleaving
	// across flows and shards.
	jitter rng.RNG

	// senderShard is where the sender endpoint lives (the shard of the
	// forward route's first node); returnToSender targets it.
	// receiverShard is the shard of the forward route's last node, where
	// the receiver endpoint and any routed-reverse injection live.
	senderShard   int
	receiverShard int
}

// message is one cross-shard event in a bundle: the packet travels by
// value so the source shard can recycle its copy at emission. origin is
// the source shard's clock at emission; the destination schedules the
// arrival with it as the causal tie-break key (des.AtOrigin), so an
// injected event that shares its exact firing instant with local events
// fires in the position its emission time would have earned it on a
// one-domain run.
type message struct {
	at     float64
	origin float64
	pkt    netsim.Packet
	kind   uint8
}

const (
	// kindArrive re-enters the forwarding path at the destination shard:
	// the packet just crossed a cut link and arrives at the link's
	// destination node.
	kindArrive uint8 = iota
	// kindToSender is the terminal pure-delay reverse delivery to a
	// sender living in another shard.
	kindToSender
)

// delivery is a pending intra-shard hand-off to an endpoint after a
// pure delay, recycled through the shard's pool (the run callback is
// allocated once per object, not per packet). tm, idx and toSender are
// checkpoint bookkeeping: the live-delivery registry lets a snapshot
// enumerate the pending hand-offs and resolve each one's endpoint from
// its flow on restore.
type delivery struct {
	s        *Shard
	to       netsim.Endpoint
	p        *netsim.Packet
	run      des.Event
	tm       des.Timer
	idx      int32
	toSender bool
}

func (dv *delivery) deliver() {
	to, p := dv.to, dv.p
	dv.to, dv.p = nil, nil
	s := dv.s
	last := len(s.liveDel) - 1
	moved := s.liveDel[last]
	s.liveDel[dv.idx] = moved
	moved.idx = dv.idx
	s.liveDel[last] = nil
	s.liveDel = s.liveDel[:last]
	s.dpool = append(s.dpool, dv)
	s.pendingDeliveries--
	to.Receive(p)
	s.PutPacket(p)
}

// injection is a pending cross-shard message arrival, recycled like
// delivery. It holds the destination-shard copy of the packet between
// the barrier that scheduled it and the event that consumes it. tm and
// idx are checkpoint bookkeeping, like delivery's.
type injection struct {
	s    *Shard
	p    *netsim.Packet
	kind uint8
	run  des.Event
	tm   des.Timer
	idx  int32
}

func (in *injection) fire() {
	s, p, kind := in.s, in.p, in.kind
	in.p = nil
	last := len(s.liveInj) - 1
	moved := s.liveInj[last]
	s.liveInj[in.idx] = moved
	moved.idx = in.idx
	s.liveInj[last] = nil
	s.liveInj = s.liveInj[:last]
	s.ipool = append(s.ipool, in)
	s.pendingInjections--
	if kind == kindArrive {
		s.c.arrive(s, p)
		return
	}
	fs := s.c.flowAt(int(p.Flow))
	fs.sender.Receive(p)
	s.PutPacket(p)
}

// Shard is one domain of the partition: a private scheduler, packet
// freelist and issue/return ledger. It implements netsim.Network, so
// protocol endpoints constructed against it (tfrc.NewFlowOn,
// tcp.NewFlowOn) draw packets from and send through their own shard.
type Shard struct {
	c     *Cluster
	id    int
	sched des.Scheduler

	// Trace, when set, is this shard's event tracer (netsim.Traced).
	// Each shard owns a private tracer so emission needs no
	// synchronization; nil keeps every hook a nil-sink. Cleared by
	// Cluster.Reset.
	Trace *obs.Tracer

	// handoffs counts cross-shard messages this shard has emitted.
	handoffs int64

	pool  []*netsim.Packet
	dpool []*delivery
	ipool []*injection

	// arriveFn and releaseFn are the Deliver and Release sinks of the
	// shard's uncut links, bound once when the shard is created so a
	// pooled cluster materializes its links without allocating closures.
	arriveFn  func(*netsim.Packet)
	releaseFn func(*netsim.Packet)

	// liveDel / liveInj index the pending deliveries and injections for
	// the checkpoint layer (unordered; removal swap-fills).
	liveDel []*delivery
	liveInj []*injection

	issued            int64
	returned          int64
	pendingDeliveries int
	pendingInjections int

	// out[parity][dst] is the bundle of messages emitted toward shard
	// dst during the current window. Two parities double-buffer the
	// bundles: while window w+1 runs (writing parity (w+1)%2), the
	// destinations drain parity w%2 — the barrier between windows
	// provides the happens-before edges in both directions.
	out [2][][]message

	// links owned by this shard (source node inside it), for InFlight
	// accounting.
	links []*netsim.Link

	// wbuf is the parity the shard is currently emitting into. It is
	// only touched by the goroutine driving this shard.
	wbuf int

	// Barrier-published progress for the stall detector: the driving
	// goroutine stores these just before each barrier arrival, and only
	// the detector reads them (from whatever goroutine dumps the
	// diagnostics). Plain per-field atomics — no consistent snapshot
	// needed, every field is individually a barrier-aligned value.
	progWindow  atomic.Int64  // windows completed (1-based; 0 = never arrived)
	progClock   atomic.Uint64 // math.Float64bits of the shard clock
	progPend    atomic.Int64  // pending events on the shard's scheduler
	progLedger  atomic.Int64  // freelist ledger: issued - returned
	progInject  atomic.Int64  // handoff ledger: undelivered cross-shard injections
	progFired   atomic.Uint64 // events fired on the shard's scheduler
	progCascade atomic.Uint64 // timing-wheel entry migrations performed
	progHandoff atomic.Int64  // cross-shard messages emitted
	// progWaitNs accumulates the wall-clock nanoseconds this shard's
	// driver spent waiting at window barriers (parallel driver only).
	// Together with the run's wall time it yields the barrier-wait
	// fraction — the load-imbalance signal of the partition.
	progWaitNs atomic.Int64
}

// Snapshot is one shard's barrier-published progress: every field is a
// barrier-aligned value stored by the shard's driving goroutine at its
// latest window arrival (or, for BarrierWait, accumulated across them),
// readable from any goroutine while the run is in flight. It is the
// public face of the stall detector's progress atomics and the
// per-shard surface of the live-introspection endpoint.
type Snapshot struct {
	// Shard is the domain's index.
	Shard int
	// Window counts completed windows (1-based; 0 = not yet arrived).
	Window int64
	// Clock is the shard's simulated clock at its latest arrival.
	Clock float64
	// Pending is the live-timer population at the latest arrival.
	Pending int64
	// Ledger is the freelist's issued-minus-returned at the arrival.
	Ledger int64
	// Injections is the count of scheduled-but-unfired cross-shard
	// arrivals at the latest arrival.
	Injections int64
	// Fired is the shard scheduler's cumulative event count.
	Fired uint64
	// Cascaded is the scheduler's cumulative timing-wheel entry
	// migrations; Cascaded/Fired is the amortized wheel-maintenance cost
	// per event, a per-shard utilization signal.
	Cascaded uint64
	// Handoffs is the cumulative count of cross-shard messages emitted.
	Handoffs int64
	// BarrierWait is the cumulative wall-clock time the shard's driver
	// has spent waiting at window barriers (parallel driver only).
	BarrierWait time.Duration
}

// Snapshot returns the shard's latest barrier-published progress.
func (s *Shard) Snapshot() Snapshot {
	return Snapshot{
		Shard:       s.id,
		Window:      s.progWindow.Load(),
		Clock:       math.Float64frombits(s.progClock.Load()),
		Pending:     s.progPend.Load(),
		Ledger:      s.progLedger.Load(),
		Injections:  s.progInject.Load(),
		Fired:       s.progFired.Load(),
		Cascaded:    s.progCascade.Load(),
		Handoffs:    s.progHandoff.Load(),
		BarrierWait: time.Duration(s.progWaitNs.Load()),
	}
}

// Tracer implements netsim.Traced: protocol endpoints constructed on
// this shard (tfrc.NewFlowOn, tcp.NewFlowOn) resolve their event
// tracer here, once, at construction.
func (s *Shard) Tracer() *obs.Tracer { return s.Trace }

// publishProgress records the shard's barrier-aligned state for the
// stall detector. Called by the driving goroutine only.
func (s *Shard) publishProgress(window int) {
	s.progWindow.Store(int64(window) + 1)
	s.progClock.Store(math.Float64bits(s.sched.Now()))
	s.progPend.Store(int64(s.sched.Pending()))
	s.progLedger.Store(s.Outstanding())
	s.progInject.Store(int64(s.pendingInjections))
	s.progFired.Store(s.sched.Fired())
	s.progCascade.Store(s.sched.Cascaded())
	s.progHandoff.Store(s.handoffs)
}

var _ netsim.Network = (*Shard)(nil)

// Sched exposes the shard's private scheduler (for endpoint timers and
// start events).
func (s *Shard) Sched() *des.Scheduler { return &s.sched }

// GetPacket implements netsim.Network against the shard's freelist.
func (s *Shard) GetPacket() *netsim.Packet {
	s.issued++
	if m := len(s.pool); m > 0 {
		p := s.pool[m-1]
		s.pool = s.pool[:m-1]
		*p = netsim.Packet{}
		return p
	}
	return &netsim.Packet{}
}

// PutPacket implements netsim.Network against the shard's freelist.
// Callers normally never need it — the cluster releases packets itself
// after delivery and on drops — but sources that abandon a packet
// before sending may.
func (s *Shard) PutPacket(p *netsim.Packet) {
	if p == nil {
		return
	}
	s.returned++
	s.pool = append(s.pool, p)
	if c := s.c; c.lcQuiet != nil {
		c.lcDischarge(int(p.Flow))
	}
}

// SendForward implements netsim.Network: the packet enters the first
// link of its flow's route, which the caller's shard owns (senders are
// placed on the shard of their route's first node).
func (s *Shard) SendForward(p *netsim.Packet) {
	c := s.c
	fs := c.flowAt(int(p.Flow))
	if fs == nil {
		panic(fmt.Sprintf("shard: forward packet for unattached flow %d", p.Flow))
	}
	if c.lcQuiet != nil {
		c.lcCharge(int(p.Flow))
	}
	p.Hop = 0
	fs.route[0].Send(p)
}

// SendReverse implements netsim.Network: routed reverse paths start at
// the receiver's own shard (the reverse route's first link leaves the
// forward route's last node); pure-delay reverse paths hand off to the
// sender's shard when it differs.
func (s *Shard) SendReverse(p *netsim.Packet) {
	fs := s.c.flowAt(int(p.Flow))
	if fs == nil || fs.sender == nil {
		panic(fmt.Sprintf("shard: reverse packet for unknown flow %d", p.Flow))
	}
	if s.c.lcQuiet != nil {
		s.c.lcCharge(int(p.Flow))
	}
	if len(fs.revRoute) > 0 {
		p.Rev = true
		p.Hop = 0
		fs.revRoute[0].Send(p)
		return
	}
	s.c.returnToSender(s, fs, p)
}

// AttachFlow implements netsim.Network by delegating to the cluster:
// flow tables are cluster-wide, freelists per shard.
func (s *Shard) AttachFlow(flow int, sender, receiver netsim.Endpoint, fwdExtra, revDelay float64) {
	s.c.attach(flow, sender, receiver, fwdExtra, revDelay)
}

// Outstanding returns issued-minus-returned packets of this shard's
// freelist.
func (s *Shard) Outstanding() int64 { return s.issued - s.returned }

// InNetwork counts packets demonstrably inside this shard: queued,
// serializing or propagating on an owned link, waiting in a pending
// delivery, or held by a scheduled cross-shard injection.
func (s *Shard) InNetwork() int {
	total := s.pendingDeliveries + s.pendingInjections
	for _, l := range s.links {
		total += l.InFlight()
	}
	return total
}

// getDelivery draws a pending-delivery record from the shard's pool and
// registers it as live.
func (s *Shard) getDelivery(to netsim.Endpoint, p *netsim.Packet, toSender bool) *delivery {
	var dv *delivery
	if m := len(s.dpool); m > 0 {
		dv = s.dpool[m-1]
		s.dpool = s.dpool[:m-1]
	} else {
		dv = &delivery{s: s}
		dv.run = dv.deliver
	}
	dv.to = to
	dv.p = p
	dv.toSender = toSender
	dv.idx = int32(len(s.liveDel))
	s.liveDel = append(s.liveDel, dv)
	s.pendingDeliveries++
	return dv
}

// emit appends a message to the bundle toward dst and recycles the
// source-side packet: from here on the destination shard's copy is the
// packet.
func (s *Shard) emit(dst int, kind uint8, p *netsim.Packet, at float64) {
	box := &s.out[s.wbuf][dst]
	*box = append(*box, message{at: at, origin: s.sched.Now(), pkt: *p, kind: kind})
	s.handoffs++
	s.Trace.Emit(s.sched.Now(), obs.EvHandoff, int32(p.Flow), -1, float64(dst))
	s.PutPacket(p)
}

// inject schedules one drained message at its arrival time. The
// packet's destination-shard copy is issued here and accounted in
// pendingInjections until the arrival event fires.
func (s *Shard) inject(m *message) {
	var in *injection
	if n := len(s.ipool); n > 0 {
		in = s.ipool[n-1]
		s.ipool = s.ipool[:n-1]
	} else {
		in = &injection{s: s}
		in.run = in.fire
	}
	p := s.GetPacket()
	*p = m.pkt
	in.p = p
	in.kind = m.kind
	in.idx = int32(len(s.liveInj))
	s.liveInj = append(s.liveInj, in)
	s.pendingInjections++
	in.tm = s.sched.AtOrigin(m.at, m.origin, in.run)
}
