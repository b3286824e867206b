package shard_test

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/shard"
	"repro/internal/tcp"
	"repro/internal/tfrc"
	"repro/internal/topology"
)

// chainSpec is a 4-node, 3-hop chain with a tight middle queue (to
// force drops, including on cut links when partitioned), long TFRC and
// TCP flows end to end, a crossing TCP flow on the middle hop, and
// Pareto cross traffic over the last two hops.
const (
	chainRate  = 1.25e6 / 4
	chainDelay = 0.005
	chainDur   = 8.0
)

func buildChain(b *shard.Cluster) []topology.LinkID {
	n0 := b.AddNode("n0")
	n1 := b.AddNode("n1")
	n2 := b.AddNode("n2")
	n3 := b.AddNode("n3")
	l0 := b.AddLink(n0, n1, chainRate, chainDelay, netsim.NewDropTail(20))
	l1 := b.AddLink(n1, n2, chainRate, chainDelay, netsim.NewDropTail(8))
	l2 := b.AddLink(n2, n3, chainRate, chainDelay, netsim.NewDropTail(20))
	b.SetDefaultRoute(l0, l1, l2)
	b.SetReverseJitter(0.2, 99)
	b.SetRoute(40, l1) // crossing TCP over the middle hop only
	return []topology.LinkID{l0, l1, l2}
}

type flowStats struct {
	throughput float64
	lossRate   float64
	delivered  int64
}

type runResult struct {
	flows []flowStats
	fired uint64
}

// runSerial executes the chain on a one-domain partition: the serial
// engine every sharded run must reproduce.
func runSerial(t *testing.T) runResult {
	t.Helper()
	res, c := runSharded(t, 1, false)
	if c.Shards() != 1 {
		t.Fatalf("k=1 produced %d shards", c.Shards())
	}
	if err := c.CheckLeaks(); err != nil {
		t.Fatal(err)
	}
	return res
}

// runSharded executes the identical chain on a cluster of k shards.
func runSharded(t *testing.T, k int, forceParallel bool) (runResult, *shard.Cluster) {
	t.Helper()
	c := shard.New()
	c.ForceParallel = forceParallel
	hops := buildChain(c)
	c.Partition(k)
	var tf []*tfrc.Sender
	var tc []*tcp.Sender
	for f := 0; f < 2; f++ {
		cfg := tfrc.DefaultConfig()
		cfg.Seed = uint64(1000 + f)
		ss, rs := c.FlowEnv(1 + f)
		snd, _ := tfrc.NewFlowOn(ss.Sched(), ss, rs.Sched(), rs, 1+f, cfg, 0.005, 0.02)
		ss.Sched().At(0.05*float64(f), snd.Start)
		tf = append(tf, snd)
	}
	for f := 0; f < 2; f++ {
		ss, rs := c.FlowEnv(10 + f)
		snd, _ := tcp.NewFlowOn(ss.Sched(), ss, rs.Sched(), rs, 10+f, tcp.DefaultConfig(), 0.005, 0.02)
		ss.Sched().At(0.03*float64(f)+0.01, snd.Start)
		tc = append(tc, snd)
	}
	ss, rs := c.FlowEnv(40)
	xsnd, _ := tcp.NewFlowOn(ss.Sched(), ss, rs.Sched(), rs, 40, tcp.DefaultConfig(), 0, 0.015)
	ss.Sched().At(0.02, xsnd.Start)
	c.AttachSink(50, hops[1], hops[2])
	sink := c.SinkEnv(hops[1], hops[2])
	ct := netsim.NewCrossTraffic(sink.Sched(), sink, 50, chainRate/4, 10, 1.5, 0.05, 1000, 7)
	sink.Sched().At(0.1, ct.Start)
	c.Run(chainDur)
	res := runResult{fired: c.Fired()}
	for i, snd := range tf {
		res.flows = append(res.flows, flowStats{
			throughput: snd.Stats().Throughput,
			lossRate:   snd.Stats().LossEventRate,
			delivered:  c.Delivered(1 + i),
		})
	}
	for i, snd := range tc {
		st := snd.Stats()
		res.flows = append(res.flows, flowStats{
			throughput: st.Throughput,
			lossRate:   st.LossEventRate,
			delivered:  c.Delivered(10 + i),
		})
	}
	return res, c
}

func requireEqual(t *testing.T, label string, serial, sharded runResult) {
	t.Helper()
	if serial.fired != sharded.fired {
		t.Errorf("%s: events fired: serial %d, sharded %d", label, serial.fired, sharded.fired)
	}
	for i := range serial.flows {
		a, b := serial.flows[i], sharded.flows[i]
		if a != b {
			t.Errorf("%s: flow %d diverged: serial %+v, sharded %+v", label, i, a, b)
		}
	}
}

// TestSerialEquivalence is the core determinism contract: the sharded
// execution reproduces the one-domain run bit for bit — throughput,
// loss-event rates, per-flow deliveries and the total event count — at
// every shard count, with drops happening on the tight middle hop
// (which becomes a cut link at k >= 2).
func TestSerialEquivalence(t *testing.T) {
	serial := runSerial(t)
	for _, k := range []int{2, 3, 4} {
		res, c := runSharded(t, k, false)
		requireEqual(t, "sequential", serial, res)
		if err := c.CheckLeaks(); err != nil {
			t.Errorf("k=%d: %v", k, err)
		}
		if k >= 2 && c.Shards() < 2 {
			t.Fatalf("k=%d produced %d shards; the chain must split", k, c.Shards())
		}
	}
}

// TestParallelDriverEquivalence pins the two drivers against each
// other: the goroutine-per-shard barrier driver (forced, so it runs
// under -race on any host) must reproduce the sequential window loop —
// and therefore the serial engine — exactly.
func TestParallelDriverEquivalence(t *testing.T) {
	serial := runSerial(t)
	for _, k := range []int{2, 4} {
		res, c := runSharded(t, k, true)
		requireEqual(t, "parallel", serial, res)
		if err := c.CheckLeaks(); err != nil {
			t.Errorf("k=%d: %v", k, err)
		}
	}
}

// TestPerShardLeakLedgers asserts the freelist protocol per shard, not
// just globally: after a run with drops on a cut link, every shard's
// own Outstanding must equal its own InNetwork (a packet crossing a cut
// is returned to the source pool at handoff and re-issued from the
// destination pool at the barrier, so neither ledger double-counts).
func TestPerShardLeakLedgers(t *testing.T) {
	_, c := runSharded(t, 3, false)
	if c.Shards() < 2 {
		t.Fatal("chain did not split")
	}
	drops := int64(0)
	for i := 0; i < 3; i++ {
		drops += c.Link(topology.LinkID(i)).Queue().(*netsim.DropTail).Drops
	}
	if drops == 0 {
		t.Fatal("workload produced no drops; the leak assertion would be vacuous")
	}
	for i := 0; i < c.Shards(); i++ {
		s := c.Shard(i)
		if out, in := s.Outstanding(), int64(s.InNetwork()); out != in {
			t.Errorf("shard %d: Outstanding %d != InNetwork %d", i, out, in)
		}
	}
	if err := c.CheckLeaks(); err != nil {
		t.Error(err)
	}
}

// TestZeroDelayColocation pins the partitioning rule: endpoints of a
// zero-delay link provide no lookahead and must land in one shard.
func TestZeroDelayColocation(t *testing.T) {
	c := shard.New()
	n0 := c.AddNode("a")
	n1 := c.AddNode("b")
	n2 := c.AddNode("c")
	l0 := c.AddLink(n0, n1, 1e6, 0, netsim.NewDropTail(8)) // zero delay: must not cut
	l1 := c.AddLink(n1, n2, 1e6, 0.01, netsim.NewDropTail(8))
	c.SetDefaultRoute(l0, l1)
	c.Partition(3)
	if c.Shards() != 2 {
		t.Fatalf("shards = %d, want 2 (zero-delay endpoints co-located)", c.Shards())
	}
	ss, rs := c.FlowEnv(1)
	if ss == rs {
		t.Fatal("sender and receiver shards identical; positive-delay link should have been cut")
	}
}

// TestClusterReset checks the pooling property: a cluster Reset and
// rebuilt in place reproduces a fresh cluster exactly.
func TestClusterReset(t *testing.T) {
	fresh, _ := runSharded(t, 2, false)

	c := shard.New()
	buildChain(c)
	c.Partition(4)
	ss, rs := c.FlowEnv(1)
	snd, _ := tfrc.NewFlowOn(ss.Sched(), ss, rs.Sched(), rs, 1, tfrc.DefaultConfig(), 0.005, 0.02)
	ss.Sched().At(0, snd.Start)
	c.Run(1.5)
	c.Reset()
	if c.Shards() != 0 {
		t.Fatal("Shards() nonzero after Reset")
	}

	// Rebuild the full chain workload in the recycled cluster by hand,
	// mirroring runSharded's k=2 build.
	hops := buildChain(c)
	c.Partition(2)
	var tf []*tfrc.Sender
	var tc []*tcp.Sender
	for f := 0; f < 2; f++ {
		cfg := tfrc.DefaultConfig()
		cfg.Seed = uint64(1000 + f)
		ss, rs := c.FlowEnv(1 + f)
		s2, _ := tfrc.NewFlowOn(ss.Sched(), ss, rs.Sched(), rs, 1+f, cfg, 0.005, 0.02)
		ss.Sched().At(0.05*float64(f), s2.Start)
		tf = append(tf, s2)
	}
	for f := 0; f < 2; f++ {
		ss, rs := c.FlowEnv(10 + f)
		s2, _ := tcp.NewFlowOn(ss.Sched(), ss, rs.Sched(), rs, 10+f, tcp.DefaultConfig(), 0.005, 0.02)
		ss.Sched().At(0.03*float64(f)+0.01, s2.Start)
		tc = append(tc, s2)
	}
	ss, rs = c.FlowEnv(40)
	xsnd, _ := tcp.NewFlowOn(ss.Sched(), ss, rs.Sched(), rs, 40, tcp.DefaultConfig(), 0, 0.015)
	ss.Sched().At(0.02, xsnd.Start)
	c.AttachSink(50, hops[1], hops[2])
	sink := c.SinkEnv(hops[1], hops[2])
	ct := netsim.NewCrossTraffic(sink.Sched(), sink, 50, chainRate/4, 10, 1.5, 0.05, 1000, 7)
	sink.Sched().At(0.1, ct.Start)
	c.Run(chainDur)
	reused := runResult{fired: c.Fired()}
	for i, s2 := range tf {
		reused.flows = append(reused.flows, flowStats{
			throughput: s2.Stats().Throughput,
			lossRate:   s2.Stats().LossEventRate,
			delivered:  c.Delivered(1 + i),
		})
	}
	for i, s2 := range tc {
		st := s2.Stats()
		reused.flows = append(reused.flows, flowStats{
			throughput: st.Throughput,
			lossRate:   st.LossEventRate,
			delivered:  c.Delivered(10 + i),
		})
	}
	requireEqual(t, "reused", fresh, reused)
	if err := c.CheckLeaks(); err != nil {
		t.Error(err)
	}
}

// TestPhaseBoundaries checks that multi-phase driving (warmup, reset,
// measure — the experiments pattern) stays serial-identical: the phase
// boundary is inclusive like des.RunUntil, and stats read between Run
// calls observe a barrier-aligned cluster. The reference drives the
// one-domain partition's scheduler directly.
func TestPhaseBoundaries(t *testing.T) {
	net := shard.New()
	buildChain(net)
	net.Partition(1)
	dom := net.Shard(0)
	sched := dom.Sched()
	cfg := tfrc.DefaultConfig()
	cfg.Seed = 4242
	snd, _ := tfrc.NewFlow(sched, dom, 1, cfg, 0.005, 0.02)
	sched.At(0, snd.Start)
	sched.RunUntil(2)
	snd.ResetStats()
	sched.RunUntil(chainDur)
	want := snd.Stats().Throughput

	c := shard.New()
	buildChain(c)
	c.Partition(2)
	ss, rs := c.FlowEnv(1)
	snd2, _ := tfrc.NewFlowOn(ss.Sched(), ss, rs.Sched(), rs, 1, cfg, 0.005, 0.02)
	ss.Sched().At(0, snd2.Start)
	c.Run(2)
	if err := c.CheckLeaks(); err != nil {
		t.Fatalf("mid-phase: %v", err)
	}
	snd2.ResetStats()
	c.Run(chainDur)
	if got := snd2.Stats().Throughput; got != want {
		t.Fatalf("phase-split throughput: sharded %v, serial %v", got, want)
	}
}

// TestLifecycleNeedsOneDomain pins where churn reclamation lives: a
// one-domain partition exposes the lifecycle — per-flow in-network
// accounting, a quiet callback, and a detach that refuses flows with
// packets still inside — while a multi-shard partition exposes none
// and its detach surface refuses outright.
func TestLifecycleNeedsOneDomain(t *testing.T) {
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", what)
			}
		}()
		fn()
	}
	nop := netsim.EndpointFunc(func(*netsim.Packet) {})

	c := shard.New()
	hops := buildChain(c)
	c.Partition(1)
	lc := c.Lifecycle()
	if lc == nil {
		t.Fatal("one-domain partition has no lifecycle")
	}
	c.ReserveFlows(70)
	var quiet []int
	lc.WatchFlows(60, 10, func(flow int) { quiet = append(quiet, flow) })
	c.AttachLive(60, nop, nop, hops, nil, 0, 0.01)
	s := c.Shard(0)
	p := s.GetPacket()
	p.Flow = 60
	p.Size = 1000
	s.SendForward(p)
	if got := lc.InFlight(60); got != 1 {
		t.Fatalf("in-flight count %d after one send, want 1", got)
	}
	mustPanic("detach with a packet inside", func() { lc.DetachFlow(60) })
	c.Run(1)
	if lc.InFlight(60) != 0 || len(quiet) != 1 || quiet[0] != 60 {
		t.Fatalf("after delivery: in-flight %d, quiet callbacks %v", lc.InFlight(60), quiet)
	}
	lc.DetachFlow(60)
	if c.Delivered(60) != 0 {
		t.Fatal("detached flow still attached")
	}
	c.AttachLive(60, nop, nop, hops, nil, 0, 0.01) // the slot is free again
	if err := c.CheckLeaks(); err != nil {
		t.Fatal(err)
	}

	c2 := shard.New()
	buildChain(c2)
	c2.Partition(2)
	if c2.Shards() != 2 {
		t.Fatalf("chain split into %d shards, want 2", c2.Shards())
	}
	if c2.Lifecycle() != nil {
		t.Fatal("multi-shard partition exposes a lifecycle")
	}
	mustPanic("WatchFlows on two shards", func() { c2.WatchFlows(60, 10, func(int) {}) })
	mustPanic("DetachFlow on two shards", func() { c2.DetachFlow(1) })
}
