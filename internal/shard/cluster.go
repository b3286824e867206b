package shard

import (
	"fmt"
	"time"

	"repro/internal/des"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/topology"
)

// linkSpec is a link declared before the partition exists. Links are
// materialized at Partition time, once each one's owning shard — and
// therefore its scheduler — is known.
type linkSpec struct {
	from, to    topology.NodeID
	rate, delay float64
	queue       netsim.Queue
}

// Cluster is the packet-level network engine: a graph of nodes and
// directed links with per-flow static source routes across any number
// of congested hops, executed across K shards. Declare the graph (or
// the paper's two-node Dumbbell), call Partition, place endpoints with
// FlowEnv + tfrc/tcp NewFlowOn, then drive it with Run. A partition
// with one domain is the serial engine: every endpoint shares one
// scheduler and Run is a plain RunUntil.
//
// Forwarding model: a flow's forward route is an ordered chain of link
// IDs. SendForward injects the packet at the first hop; each link
// egress hands the packet back to the cluster, which either forwards it
// into the next link's queue or — past the last hop — delivers it to
// the flow's receiver after the flow's extra forward delay. Sink flows
// (AttachSink, no receiver) recycle their packets at route end; this is
// how cross traffic rides a chosen sub-path. A packet of a flow that
// was never attached is a wiring bug and panics.
//
// Reverse model: by default the reverse path is uncongested and modeled
// as a pure per-flow delay (with optional jitter), as in the paper's
// experiments. A flow may instead carry a routed reverse path
// (SetReverseRoute, or SetDefaultReverseRoute for every endpoint flow):
// feedback and acknowledgment packets are then forwarded hop by hop
// through real links and queues — queued behind competing traffic,
// delayed by serialization, possibly dropped — before the flow's
// remaining reverse delay returns them to the sender.
//
// The shards own the packet freelists and track issue/return counts,
// so CheckLeaks can assert the leak invariant: every packet a freelist
// issued is either back in a pool or demonstrably inside the network.
//
// The zero Cluster is not ready; use New (or Reset a used one).
type Cluster struct {
	nodes []string
	specs []linkSpec

	links    []*netsim.Link
	linkFrom []topology.NodeID
	linkTo   []topology.NodeID

	// flows is indexed by flow id (nil = unattached). A dense slice
	// instead of a map: lookups sit on the per-packet hot path, and the
	// slice layout is what makes run-time attach (AttachLive) race-free
	// under the parallel driver:
	// after ReserveFlows the slice header never changes, an arrival event
	// stores a pointer into its own flow's slot, and any other shard only
	// reads that slot after a window barrier has ordered the store before
	// the packet that needs it.
	flows []*flowRec
	// flowCount counts build-time attached flows (AttachLive does not
	// touch it — it would be a cross-shard race, and only the build-time
	// SetReverseJitter guard needs the count).
	flowCount int

	routes       map[int][]topology.LinkID
	defaultRoute []topology.LinkID

	revRoutes       map[int][]topology.LinkID
	defaultRevRoute []topology.LinkID

	reverseJitter float64
	jitterSeed    uint64

	nodeShard []int
	linkShard []int
	shards    []*Shard
	k         int

	horizon float64
	sealed  bool

	// declaredRev holds the pure-delay reverse latencies announced by
	// DeclareReverseChannel for flows that will attach at run time —
	// after seal has already computed the horizon from the build-time
	// flow population. seal folds them in exactly like attached flows'.
	declaredRev []float64

	// ForceParallel selects the goroutine-per-shard driver even on a
	// single-CPU host (where the sequential window loop is the default).
	// Both drivers produce bit-identical results; tests set this so the
	// barrier path runs under -race regardless of the host.
	ForceParallel bool

	// StallBudget bounds the wall-clock time any shard may spend waiting
	// at a window barrier under the parallel driver before the stall
	// detector aborts the run with per-shard diagnostics. Zero applies
	// DefaultStallBudget; negative disables detection. The sequential
	// window loop needs no watchdog — a single goroutine cannot wait on
	// itself.
	StallBudget time.Duration

	// stallHook, when set (tests only), runs at the top of every window
	// on the parallel driver, before the shard executes it. Injecting a
	// sleep here simulates a stalled or slow shard.
	stallHook func(shard, window int)

	// poisoned marks a cluster whose parallel run aborted on a tripped
	// barrier: an abandoned driver goroutine may still reference the
	// shards, so the cluster must never be reused (or pooled).
	poisoned bool

	frPool []*flowRec

	// Per-flow in-network packet accounting for the churn engine's
	// reclamation decisions (WatchFlows, one-domain partitions only):
	// lcCount[flow-lcLo] is the number of freelist packets the flow
	// currently has inside the simulator, and lcQuiet fires whenever a
	// discharge empties a watched flow's account. All three stay
	// nil/empty when unused.
	lcLo    int
	lcCount []int32
	lcQuiet func(flow int)

	// Partition's working sets, kept across Reset so a pooled cluster
	// partitions without allocating.
	parent     []int
	atomOf     []int
	weight     []float64
	atomWeight []float64
	atomShard  []int
}

// New returns an empty cluster.
func New() *Cluster {
	return &Cluster{
		routes: map[int][]topology.LinkID{},
	}
}

// Reset empties the graph, partition and flow tables while keeping the
// shards' schedulers, freelists and bundle buffers and the flow-record
// pool, so a pooled cluster rebuilds its next simulation in place (see
// the cluster pool in internal/experiments). Packets still referenced by
// a previous run's pending events are abandoned to the garbage
// collector.
func (c *Cluster) Reset() {
	c.nodes = c.nodes[:0]
	c.specs = c.specs[:0]
	c.links = c.links[:0]
	c.linkFrom = c.linkFrom[:0]
	c.linkTo = c.linkTo[:0]
	for id, fr := range c.flows {
		if fr != nil {
			c.putFlowRec(fr)
			c.flows[id] = nil
		}
	}
	c.flows = c.flows[:0]
	c.flowCount = 0
	c.lcLo = 0
	c.lcCount = c.lcCount[:0]
	c.lcQuiet = nil
	c.declaredRev = c.declaredRev[:0]
	for id := range c.routes {
		delete(c.routes, id)
	}
	for id := range c.revRoutes {
		delete(c.revRoutes, id)
	}
	c.defaultRoute = nil
	c.defaultRevRoute = nil
	c.reverseJitter = 0
	c.jitterSeed = 0
	c.nodeShard = c.nodeShard[:0]
	c.linkShard = c.linkShard[:0]
	c.k = 0
	c.horizon = 0
	c.sealed = false
	c.ForceParallel = false
	c.StallBudget = 0
	c.stallHook = nil
	if c.poisoned {
		panic("shard: Reset on a poisoned cluster (its barrier tripped; an abandoned driver may still hold it)")
	}
	for _, s := range c.shards {
		s.sched.Reset()
		s.issued, s.returned = 0, 0
		s.pendingDeliveries, s.pendingInjections = 0, 0
		for i := range s.liveDel {
			s.liveDel[i] = nil
		}
		s.liveDel = s.liveDel[:0]
		for i := range s.liveInj {
			s.liveInj[i] = nil
		}
		s.liveInj = s.liveInj[:0]
		s.links = s.links[:0]
		s.wbuf = 0
		s.Trace = nil
		s.handoffs = 0
		s.progWindow.Store(0)
		s.progClock.Store(0)
		s.progPend.Store(0)
		s.progLedger.Store(0)
		s.progInject.Store(0)
		s.progFired.Store(0)
		s.progCascade.Store(0)
		s.progHandoff.Store(0)
		s.progWaitNs.Store(0)
		for parity := range s.out {
			for d := range s.out[parity] {
				s.out[parity][d] = s.out[parity][d][:0]
			}
		}
	}
	c.shards = c.shards[:0]
}

// AddNode adds a named node and returns its id.
func (c *Cluster) AddNode(name string) topology.NodeID {
	c.nodes = append(c.nodes, name)
	return topology.NodeID(len(c.nodes) - 1)
}

// AddLink declares a directed link. Its netsim.Link is materialized at
// Partition time on the shard that owns the source node.
func (c *Cluster) AddLink(from, to topology.NodeID, rate, delay float64, queue netsim.Queue) topology.LinkID {
	if c.sealed || len(c.shards) > 0 {
		panic("shard: AddLink after Partition")
	}
	if int(from) >= len(c.nodes) || int(to) >= len(c.nodes) || from < 0 || to < 0 {
		panic("shard: link endpoint node out of range")
	}
	if queue == nil {
		panic("shard: nil queue")
	}
	if rate <= 0 || delay < 0 {
		panic("shard: invalid link rate/delay")
	}
	c.specs = append(c.specs, linkSpec{from: from, to: to, rate: rate, delay: delay, queue: queue})
	c.linkFrom = append(c.linkFrom, from)
	c.linkTo = append(c.linkTo, to)
	return topology.LinkID(len(c.specs) - 1)
}

// Dumbbell declares the paper's canonical topology on an empty
// cluster: an ingress and an egress node joined by one bottleneck link,
// which becomes the default route. Flows then attach with the plain
// netsim.Network AttachFlow over an uncongested pure-delay reverse
// path; cross traffic rides a sink flow (AttachSink) over the returned
// bottleneck. Partition afterwards.
func (c *Cluster) Dumbbell(rate, delay float64, queue netsim.Queue) topology.LinkID {
	if len(c.nodes) != 0 {
		panic("shard: Dumbbell needs an empty cluster")
	}
	ingress := c.AddNode("ingress")
	id := c.AddLink(ingress, c.AddNode("egress"), rate, delay, queue)
	c.SetDefaultRoute(id)
	return id
}

// Link returns the materialized link behind an id (valid after
// Partition).
func (c *Cluster) Link(id topology.LinkID) *netsim.Link { return c.links[id] }

// Links returns the number of declared links.
func (c *Cluster) Links() int { return len(c.specs) }

// LinkSched returns the scheduler of the shard that owns the link — the
// shard of its source node, where every Send on the link executes.
// Fault plans (internal/fault) arm their timed events here, so a fault
// manipulates its link from the same scheduler that serializes the
// link's packets, at any shard count. Valid after Partition.
func (c *Cluster) LinkSched(id topology.LinkID) *des.Scheduler {
	c.mustPartitioned()
	return &c.shards[c.linkShard[id]].sched
}

// checkRoute validates that hops form a contiguous directed path.
func (c *Cluster) checkRoute(hops []topology.LinkID) {
	if len(hops) == 0 {
		panic("shard: empty route")
	}
	for i, h := range hops {
		if int(h) >= len(c.specs) || h < 0 {
			panic(fmt.Sprintf("shard: route hop %d: unknown link %d", i, h))
		}
		if i > 0 && c.linkFrom[h] != c.linkTo[hops[i-1]] {
			panic(fmt.Sprintf("shard: route hop %d: link %d does not start where link %d ends",
				i, h, hops[i-1]))
		}
	}
}

// SetRoute declares the static source route for a flow id.
func (c *Cluster) SetRoute(flow int, hops ...topology.LinkID) {
	c.checkRoute(hops)
	c.routes[flow] = append([]topology.LinkID(nil), hops...)
}

// SetDefaultRoute declares the route used for flows with no per-flow
// SetRoute entry.
func (c *Cluster) SetDefaultRoute(hops ...topology.LinkID) {
	c.checkRoute(hops)
	c.defaultRoute = append([]topology.LinkID(nil), hops...)
}

// SetReverseRoute declares the routed reverse path for a flow id.
func (c *Cluster) SetReverseRoute(flow int, hops ...topology.LinkID) {
	c.checkRoute(hops)
	if c.revRoutes == nil {
		c.revRoutes = map[int][]topology.LinkID{}
	}
	c.revRoutes[flow] = append([]topology.LinkID(nil), hops...)
}

// SetDefaultReverseRoute declares the routed reverse path used for
// flows with no per-flow SetReverseRoute entry.
func (c *Cluster) SetDefaultReverseRoute(hops ...topology.LinkID) {
	c.checkRoute(hops)
	c.defaultRevRoute = append([]topology.LinkID(nil), hops...)
}

// checkReverse validates that a reverse route connects the forward
// route's end node back to its start node.
func (c *Cluster) checkReverse(fwd, rev []topology.LinkID) {
	c.checkRoute(rev)
	if c.linkFrom[rev[0]] != c.linkTo[fwd[len(fwd)-1]] {
		panic(fmt.Sprintf("shard: reverse route starts at node %d, want the forward route's last node %d",
			c.linkFrom[rev[0]], c.linkTo[fwd[len(fwd)-1]]))
	}
	if c.linkTo[rev[len(rev)-1]] != c.linkFrom[fwd[0]] {
		panic(fmt.Sprintf("shard: reverse route ends at node %d, want the forward route's first node %d",
			c.linkTo[rev[len(rev)-1]], c.linkFrom[fwd[0]]))
	}
}

// SetReverseJitter enables reverse-path delay jitter with the given
// fraction (0 <= j < 1) and seed: each reverse-path delivery delay is
// scaled by a uniform factor in [1-j, 1+j]. Real acknowledgment streams
// jitter at least this much; a perfectly periodic ack clock in a
// deterministic simulator otherwise slots arrivals into queue vacancies
// with unrealistic precision. Each flow attached afterwards draws from
// its own stream seeded by topology.FlowJitterSeed(seed, flow), so a
// flow's jitter sequence depends only on its own reverse traffic — not
// on how its packets interleave with other flows', which is what keeps
// the run identical at every shard count. Call it before attaching
// flows.
func (c *Cluster) SetReverseJitter(j float64, seed uint64) {
	if j < 0 || j >= 1 {
		panic("shard: reverse jitter outside [0,1)")
	}
	if c.flowCount > 0 {
		panic("shard: SetReverseJitter after flows attached")
	}
	c.reverseJitter = j
	c.jitterSeed = seed
}

// flowHops resolves a flow's forward route (per-flow or default).
func (c *Cluster) flowHops(flow int) []topology.LinkID {
	hops, ok := c.routes[flow]
	if !ok {
		hops = c.defaultRoute
	}
	if len(hops) == 0 {
		panic(fmt.Sprintf("shard: no route for flow %d (SetRoute or SetDefaultRoute first)", flow))
	}
	return hops
}

// FlowEnv returns the scheduler/network pairs for a flow's two
// endpoints: the sender lives on the shard of the route's first node,
// the receiver on the shard of its last. Valid after Partition; pass
// the pairs to tfrc.NewFlowOn / tcp.NewFlowOn.
func (c *Cluster) FlowEnv(flow int) (snd, rcv *Shard) {
	c.mustPartitioned()
	hops := c.flowHops(flow)
	snd = c.shards[c.nodeShard[c.linkFrom[hops[0]]]]
	rcv = c.shards[c.nodeShard[c.linkTo[hops[len(hops)-1]]]]
	return snd, rcv
}

// SinkEnv returns the shard a sink flow's source must run on: the shard
// owning the route's first node. Valid after Partition.
func (c *Cluster) SinkEnv(hops ...topology.LinkID) *Shard {
	c.mustPartitioned()
	c.checkRoute(hops)
	return c.shards[c.nodeShard[c.linkFrom[hops[0]]]]
}

func (c *Cluster) mustPartitioned() {
	if len(c.shards) == 0 {
		panic("shard: Partition first")
	}
}

// attach registers a flow's endpoints and delays on its declared route
// (SetRoute, falling back to SetDefaultRoute) and places it: the sender
// lives on the shard of the route's first node, the receiver on the
// shard of its last. A sink flow (nil endpoints) may not carry a
// routed reverse path and never inherits the default one.
func (c *Cluster) attach(flow int, sender, receiver netsim.Endpoint, fwdExtra, revDelay float64) {
	c.mustPartitioned()
	if fwdExtra < 0 || revDelay < 0 {
		panic("shard: negative delay")
	}
	if flow < 0 {
		panic(fmt.Sprintf("shard: negative flow id %d", flow))
	}
	if c.flowAt(flow) != nil {
		panic(fmt.Sprintf("shard: duplicate flow id %d", flow))
	}
	hops := c.flowHops(flow)
	revHops, explicit := c.revRoutes[flow]
	if explicit && sender == nil {
		panic(fmt.Sprintf("shard: reverse route for sink flow %d (no sender to return packets to)", flow))
	}
	if !explicit && sender != nil {
		revHops = c.defaultRevRoute
	}
	if len(revHops) > 0 {
		c.checkReverse(hops, revHops)
	}
	fr := c.getFlowRec()
	for _, h := range hops {
		fr.route = append(fr.route, c.links[h])
	}
	for _, h := range revHops {
		fr.revRoute = append(fr.revRoute, c.links[h])
	}
	fr.fwdExtra = fwdExtra
	fr.revDelay = revDelay
	fr.sender = sender
	fr.receiver = receiver
	fr.senderShard = c.nodeShard[c.linkFrom[hops[0]]]
	fr.receiverShard = c.nodeShard[c.linkTo[hops[len(hops)-1]]]
	if c.reverseJitter > 0 {
		fr.jitter.Reseed(topology.FlowJitterSeed(c.jitterSeed, flow))
	}
	for len(c.flows) <= flow {
		c.flows = append(c.flows, nil)
	}
	c.flows[flow] = fr
	c.flowCount++
}

// flowAt returns the flow's record, nil when the id is out of range or
// unattached.
func (c *Cluster) flowAt(flow int) *flowRec {
	if flow >= 0 && flow < len(c.flows) {
		return c.flows[flow]
	}
	return nil
}

// ReserveFlows pre-sizes the flow table for ids [0, max). Mandatory
// before a run that attaches flows at simulation time (AttachLive): the
// slice header must never change while shard goroutines read it.
func (c *Cluster) ReserveFlows(max int) {
	if c.sealed {
		panic("shard: ReserveFlows after the first Run")
	}
	for len(c.flows) < max {
		c.flows = append(c.flows, nil)
	}
}

// AttachLive registers a flow during a run, from an arrival event
// executing on the shard that owns the route's first node. Unlike the
// build-time attach it takes pre-resolved forward/reverse hops (the
// route maps stay read-only while shards run) and stores into a slot
// reserved by ReserveFlows (the slice header stays immutable). On a
// one-domain partition the record comes from the flow-record pool that
// DetachFlow refills, so steady-state churn attaches without
// allocating; with several shards it is built fresh (two classes homed
// on different shards may attach concurrently). Other shards observe
// the new flow only through its packets, which cross shards no earlier
// than the next window barrier — the barrier's happens-before edge
// orders the store before every remote read.
func (c *Cluster) AttachLive(flow int, sender, receiver netsim.Endpoint, fwdHops, revHops []topology.LinkID, fwdExtra, revDelay float64) {
	if sender == nil || receiver == nil {
		panic("shard: nil endpoint")
	}
	if fwdExtra < 0 || revDelay < 0 {
		panic("shard: negative delay")
	}
	if flow < 0 || flow >= len(c.flows) {
		panic(fmt.Sprintf("shard: AttachLive flow %d outside the reserved table (ReserveFlows first)", flow))
	}
	if c.flows[flow] != nil {
		panic(fmt.Sprintf("shard: duplicate flow id %d", flow))
	}
	var fr *flowRec
	if c.k == 1 {
		fr = c.getFlowRec()
	} else {
		fr = &flowRec{
			route:    make([]*netsim.Link, 0, len(fwdHops)),
			revRoute: make([]*netsim.Link, 0, len(revHops)),
		}
	}
	for _, h := range fwdHops {
		fr.route = append(fr.route, c.links[h])
	}
	for _, h := range revHops {
		fr.revRoute = append(fr.revRoute, c.links[h])
	}
	fr.fwdExtra = fwdExtra
	fr.revDelay = revDelay
	fr.sender = sender
	fr.receiver = receiver
	fr.senderShard = c.nodeShard[c.linkFrom[fwdHops[0]]]
	fr.receiverShard = c.nodeShard[c.linkTo[fwdHops[len(fwdHops)-1]]]
	if c.reverseJitter > 0 {
		fr.jitter.Reseed(topology.FlowJitterSeed(c.jitterSeed, flow))
	}
	c.flows[flow] = fr
}

// RouteEnv returns the shards owning a route's two ends — the sender
// lives with the first node, the receiver with the last — without
// declaring a flow, so the churn engine resolves each class's endpoint
// placement once, before any of the class's flows exist. Valid after
// Partition.
func (c *Cluster) RouteEnv(hops []topology.LinkID) (snd, rcv *Shard) {
	c.mustPartitioned()
	c.checkRoute(hops)
	snd = c.shards[c.nodeShard[c.linkFrom[hops[0]]]]
	rcv = c.shards[c.nodeShard[c.linkTo[hops[len(hops)-1]]]]
	return snd, rcv
}

// DeclareReverseChannel announces that run-time attached flows will
// open a pure-delay reverse channel of the given latency from the
// route's last node back to its first. seal computes the lookahead
// horizon from the flow population at the first Run — flows that attach
// later (internal/arrivals) must declare their reverse latency here
// beforehand, or the window size would ignore their cross-shard
// channel. A routed reverse path needs no declaration: its links are
// cut links with their own delays. No-op when the two ends share a
// shard. Call after Partition, before the first Run.
func (c *Cluster) DeclareReverseChannel(hops []topology.LinkID, revDelay float64) {
	c.mustPartitioned()
	if c.sealed {
		panic("shard: DeclareReverseChannel after the first Run")
	}
	c.checkRoute(hops)
	if c.nodeShard[c.linkFrom[hops[0]]] == c.nodeShard[c.linkTo[hops[len(hops)-1]]] {
		return
	}
	c.declaredRev = append(c.declaredRev, revDelay)
}

// getFlowRec recycles a flow record (its route slices keep their
// capacity) or allocates a fresh one.
func (c *Cluster) getFlowRec() *flowRec {
	if m := len(c.frPool); m > 0 {
		fr := c.frPool[m-1]
		c.frPool = c.frPool[:m-1]
		return fr
	}
	return &flowRec{}
}

// putFlowRec clears a detached flow's record into the pool.
func (c *Cluster) putFlowRec(fr *flowRec) {
	fr.route = fr.route[:0]
	fr.revRoute = fr.revRoute[:0]
	fr.sender, fr.receiver = nil, nil
	fr.delivered = 0
	c.frPool = append(c.frPool, fr)
}

// Lifecycle is the churn engine's reclamation surface: per-flow
// in-network packet accounting with a quiet callback, and the detach
// itself.
type Lifecycle interface {
	// WatchFlows enables per-flow packet accounting for ids [lo, lo+count),
	// invoking onQuiet each time a watched flow's count returns to zero.
	WatchFlows(lo, count int, onQuiet func(flow int))
	// DetachFlow removes a quiet flow and recycles its routing record.
	DetachFlow(flow int)
	// InFlight returns the watched flow's current in-network packet count.
	InFlight(flow int) int
}

// Lifecycle returns the cluster's reclamation surface on a one-domain
// partition and nil otherwise: with several shards a detach would be a
// cross-shard write, so churn flows stay attached. Valid after
// Partition.
func (c *Cluster) Lifecycle() Lifecycle {
	c.mustPartitioned()
	if c.k != 1 {
		return nil
	}
	return c
}

// WatchFlows enables per-flow in-network packet accounting for flow ids
// in [lo, lo+count): every SendForward/SendReverse charges the packet
// to its flow, every PutPacket discharges it, and a discharge that
// empties the flow's account invokes onQuiet(flow) — the churn engine's
// cue to reclaim a finished flow the moment its last packet leaves the
// simulator. The accounting costs two bounds checks per packet on
// watched ranges and a nil check otherwise. One-domain partitions only
// (see Lifecycle).
func (c *Cluster) WatchFlows(lo, count int, onQuiet func(flow int)) {
	c.mustOneDomain("WatchFlows")
	if onQuiet == nil || count <= 0 {
		panic("shard: WatchFlows needs a callback and a positive range")
	}
	if c.lcQuiet != nil {
		panic("shard: WatchFlows called twice")
	}
	c.lcLo = lo
	if cap(c.lcCount) < count {
		c.lcCount = make([]int32, count)
	} else {
		c.lcCount = c.lcCount[:count]
		clear(c.lcCount)
	}
	c.lcQuiet = onQuiet
}

// InFlight returns the watched flow's current in-network packet count
// (0 for flows outside the watched range or without accounting).
func (c *Cluster) InFlight(flow int) int {
	if i := flow - c.lcLo; c.lcQuiet != nil && i >= 0 && i < len(c.lcCount) {
		return int(c.lcCount[i])
	}
	return 0
}

// DetachFlow removes a flow at simulation time and recycles its routing
// record, so a departed session costs nothing once its last packet is
// back in the freelist. The caller must only detach a quiet flow —
// endpoints done, their timers expired or cancelled, and no packets of
// the flow left inside the simulator; with WatchFlows accounting on the
// last condition is asserted. Detaching mutates no scheduler or ledger
// state, so reclaiming on one partition and not on another cannot
// diverge their event trajectories. One-domain partitions only.
func (c *Cluster) DetachFlow(flow int) {
	c.mustOneDomain("DetachFlow")
	fr := c.flowAt(flow)
	if fr == nil {
		panic(fmt.Sprintf("shard: DetachFlow on unattached flow %d", flow))
	}
	if n := c.InFlight(flow); n != 0 {
		panic(fmt.Sprintf("shard: DetachFlow(%d) with %d packets still in the network", flow, n))
	}
	c.putFlowRec(fr)
	c.flows[flow] = nil
}

func (c *Cluster) mustOneDomain(op string) {
	c.mustPartitioned()
	if c.k != 1 {
		panic(fmt.Sprintf("shard: %s on a %d-shard partition (churn reclamation needs one domain)", op, c.k))
	}
}

func (c *Cluster) lcCharge(flow int) {
	if i := flow - c.lcLo; i >= 0 && i < len(c.lcCount) {
		c.lcCount[i]++
	}
}

func (c *Cluster) lcDischarge(flow int) {
	if i := flow - c.lcLo; i >= 0 && i < len(c.lcCount) {
		c.lcCount[i]--
		if c.lcCount[i] == 0 {
			c.lcQuiet(flow)
		} else if c.lcCount[i] < 0 {
			panic(fmt.Sprintf("shard: flow %d discharged below zero (PutPacket without a matching send)", flow))
		}
	}
}

// AttachFlow registers a flow's endpoints on its declared route
// (cluster-level convenience; normally endpoints attach through their
// sender shard's netsim.Network surface). fwdExtra is the one-way delay
// from the last routed link's egress to the receiver. revDelay is the
// full uncongested return delay from receiver to sender — unless the
// flow has a routed reverse path, in which case it is the remaining
// delay after the last reverse hop.
func (c *Cluster) AttachFlow(flow int, sender, receiver netsim.Endpoint, fwdExtra, revDelay float64) {
	if sender == nil || receiver == nil {
		panic("shard: nil endpoint")
	}
	c.attach(flow, sender, receiver, fwdExtra, revDelay)
}

// AttachSink registers a receiver-less flow over a route: its packets
// are recycled at route end by whichever shard owns it. This is how
// cross traffic is carried over a chosen sub-path. A sink flow has no
// sender to return packets to, so declaring a reverse route for it is
// rejected.
func (c *Cluster) AttachSink(flow int, hops ...topology.LinkID) {
	c.checkRoute(hops)
	c.routes[flow] = append([]topology.LinkID(nil), hops...)
	c.attach(flow, nil, nil, 0, 0)
}

// returnToSender schedules the packet's final hand-off to the flow's
// sender after the flow's remaining reverse delay — locally when the
// sender shares the shard, as a cross-shard message otherwise. s is the
// shard the call executes on (the receiver's for pure-delay paths, the
// reverse route's terminal shard — always the sender's — for routed
// ones).
func (c *Cluster) returnToSender(s *Shard, fs *flowRec, p *netsim.Packet) {
	delay := fs.revDelay
	if c.reverseJitter > 0 {
		delay *= 1 + c.reverseJitter*(2*fs.jitter.Float64()-1)
	}
	if fs.senderShard == s.id {
		dv := s.getDelivery(fs.sender, p, true)
		dv.tm = s.sched.After(delay, dv.run)
		return
	}
	s.emit(fs.senderShard, kindToSender, p, s.sched.Now()+delay)
}

// arriveReverse handles a reverse-path packet exiting a link on shard
// s: forward it into the next hop of the flow's reverse route, or
// return it to the sender past the last hop after the flow's remaining
// reverse delay.
func (c *Cluster) arriveReverse(s *Shard, fs *flowRec, p *netsim.Packet) {
	if next := int(p.Hop) + 1; next < len(fs.revRoute) {
		p.Hop = int32(next)
		fs.revRoute[next].Send(p)
		return
	}
	c.returnToSender(s, fs, p)
}

// arrive handles a packet exiting a link: forward it into the next hop
// of its route, or deliver it past the last hop. It runs in the shard
// of the node the packet just reached, so the next hop's link — owned
// by that same node's shard — is always local.
func (c *Cluster) arrive(s *Shard, p *netsim.Packet) {
	fs := c.flowAt(int(p.Flow))
	if fs == nil {
		// Unattached flows are rejected at SendForward, so nothing can
		// arrive unrouted.
		panic(fmt.Sprintf("shard: arrival for unknown flow %d", p.Flow))
	}
	if p.Rev {
		c.arriveReverse(s, fs, p)
		return
	}
	if next := int(p.Hop) + 1; next < len(fs.route) {
		p.Hop = int32(next)
		fs.route[next].Send(p)
		return
	}
	fs.delivered++
	if fs.receiver == nil {
		s.PutPacket(p)
		return
	}
	if fs.fwdExtra == 0 {
		fs.receiver.Receive(p)
		s.PutPacket(p)
		return
	}
	dv := s.getDelivery(fs.receiver, p, false)
	dv.tm = s.sched.After(fs.fwdExtra, dv.run)
}

// BaseRTT returns the no-queueing round-trip time for the flow: the sum
// of its routed links' propagation delays — forward and, when the
// reverse path is routed, reverse — the extra forward delay and the
// return delay (transmission times excluded).
func (c *Cluster) BaseRTT(flow int) float64 {
	fs := c.flowAt(flow)
	if fs == nil {
		return 0
	}
	rtt := fs.fwdExtra + fs.revDelay
	for _, l := range fs.route {
		rtt += l.Delay
	}
	for _, l := range fs.revRoute {
		rtt += l.Delay
	}
	return rtt
}

// Delivered returns the number of packets a flow's route carried to its
// end (whether consumed by a receiver or sunk).
func (c *Cluster) Delivered(flow int) int64 {
	if fs := c.flowAt(flow); fs != nil {
		return fs.delivered
	}
	return 0
}

// Shards returns the effective shard count (after Partition; the
// partitioner may produce fewer domains than requested).
func (c *Cluster) Shards() int { return c.k }

// Horizon returns the synchronization horizon in seconds (0 before the
// first Run, or when the partition has a single shard).
func (c *Cluster) Horizon() float64 { return c.horizon }

// Fired returns the total events executed across all shards. It is
// the same at every shard count: every event of the one-domain run maps
// to exactly one event on exactly one shard (a cut link's delivery
// event becomes the destination shard's injection event, one for one).
func (c *Cluster) Fired() uint64 {
	var total uint64
	for _, s := range c.shards {
		total += s.sched.Fired()
	}
	return total
}

// Outstanding sums the shards' freelist ledgers.
func (c *Cluster) Outstanding() int64 {
	var total int64
	for _, s := range c.shards {
		total += s.Outstanding()
	}
	return total
}

// InNetwork sums the shards' in-simulator packet counts.
func (c *Cluster) InNetwork() int {
	total := 0
	for _, s := range c.shards {
		total += s.InNetwork()
	}
	return total
}

// Shard returns shard i (for per-shard assertions in tests).
func (c *Cluster) Shard(i int) *Shard { return c.shards[i] }

// Snapshots returns every shard's latest barrier-published progress in
// shard order. Safe to call from any goroutine while a run is in
// flight — the live-introspection endpoint polls it to show per-shard
// clocks, event throughput and barrier-wait fractions.
func (c *Cluster) Snapshots() []Snapshot {
	out := make([]Snapshot, len(c.shards))
	for i, s := range c.shards {
		out[i] = s.Snapshot()
	}
	return out
}

// LinkTracer returns the event tracer of the shard owning the link (the
// shard of its source node, where every Send on the link executes), nil
// when tracing is off. It is the fault layer's seam (fault.TracedHost)
// for emitting link transitions into the right domain's stream. Valid
// after Partition.
func (c *Cluster) LinkTracer(id topology.LinkID) *obs.Tracer {
	c.mustPartitioned()
	return c.shards[c.linkShard[id]].Trace
}

// AttachTracers installs a bounded event tracer of the given capacity
// on every shard. Call it after Partition and before endpoints are
// constructed — tfrc/tcp senders resolve their domain's tracer once, at
// construction. Each shard's ring is only written from its own driver
// goroutine, so emission stays unsynchronized; the per-shard streams
// merge deterministically through obs.MergeEvents at collection time.
// cap <= 0 leaves every tracer nil (tracing off).
func (c *Cluster) AttachTracers(cap int) {
	c.mustPartitioned()
	for _, s := range c.shards {
		s.Trace = obs.NewTracer(cap, s.id)
	}
}

// Tracers returns the shards' tracers in shard order (nil entries when
// tracing is off).
func (c *Cluster) Tracers() []*obs.Tracer {
	out := make([]*obs.Tracer, len(c.shards))
	for i, s := range c.shards {
		out[i] = s.Trace
	}
	return out
}

// Pending sums the shards' live scheduled-event populations. At a
// barrier-aligned instant it is the same at every shard count (see
// Fired).
func (c *Cluster) Pending() int {
	total := 0
	for _, s := range c.shards {
		total += s.sched.Pending()
	}
	return total
}

// Poisoned reports whether a parallel run aborted on a tripped barrier.
// A poisoned cluster must be discarded: an abandoned driver goroutine
// may still be stuck inside one of its shards.
func (c *Cluster) Poisoned() bool { return c.poisoned }

// CheckLeaks verifies the cross-shard freelist protocol at a barrier-
// aligned instant (any time between Run calls): every bundle drained,
// and Outstanding == InNetwork both per shard and globally. The
// per-shard invariant holds because a handoff returns the packet to the
// source shard's pool at emission and the destination issues its own
// copy at the barrier, so a packet in flight across a cut is charged to
// exactly one ledger — the destination's, under pendingInjections.
func (c *Cluster) CheckLeaks() error {
	for _, s := range c.shards {
		for parity := range s.out {
			for dst := range s.out[parity] {
				if n := len(s.out[parity][dst]); n != 0 {
					return fmt.Errorf("shard %d: %d undrained messages toward shard %d", s.id, n, dst)
				}
			}
		}
		if out, in := s.Outstanding(), int64(s.InNetwork()); out != in {
			return fmt.Errorf("shard %d: packet leak: %d outstanding from the freelist but %d in the shard", s.id, out, in)
		}
	}
	if out, in := c.Outstanding(), int64(c.InNetwork()); out != in {
		return fmt.Errorf("shard: global packet leak: %d outstanding but %d in the network", out, in)
	}
	return nil
}
