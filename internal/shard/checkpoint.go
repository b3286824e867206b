package shard

import (
	"repro/internal/checkpoint"
	"repro/internal/des"
	"repro/internal/netsim"
)

// The cluster's snapshot surface is split into sections the restore
// orchestrator (internal/experiments) sequences explicitly, because
// their restore points differ: links restore right after the rebuild,
// flow overlays only after every flow — including churn arrivals — has
// been re-attached, deliveries after the endpoints they target exist,
// and the freelist ledgers last of all so the leak invariant holds the
// moment the restore completes. Snapshots are only taken between Run
// calls, when the cluster is barrier-aligned: every bundle is drained,
// so the only cross-shard state in flight is the scheduled-but-unfired
// injections, which each destination shard owns and saves like any
// other timer. capOf maps a scheduler to the capture of its timer
// population; every section resolves each timer against the capture of
// the shard that owns it.

// SaveLinks writes every link's state in link-id order, each against
// its owning shard's capture.
func (c *Cluster) SaveLinks(w *checkpoint.Writer, capOf func(*des.Scheduler) *des.TimerCapture) {
	w.Int(len(c.links))
	for id, l := range c.links {
		l.Save(w, capOf(&c.shards[c.linkShard[id]].sched))
	}
}

// RestoreLinks overlays saved state onto the rebuilt links. Each link's
// packets are drawn from its owning shard's freelist.
func (c *Cluster) RestoreLinks(r *checkpoint.Reader) {
	if n := r.Count(); n != len(c.links) {
		r.Fail("snapshot has %d links, rebuilt cluster has %d", n, len(c.links))
		return
	}
	for id, l := range c.links {
		if r.Err() != nil {
			return
		}
		l.Restore(r, c.shards[c.linkShard[id]].GetPacket)
	}
}

// attached counts the non-nil entries of the flow table (flowCount only
// tracks build-time attaches; AttachLive does not touch it).
func (c *Cluster) attached() int {
	n := 0
	for _, fr := range c.flows {
		if fr != nil {
			n++
		}
	}
	return n
}

// SaveFlows writes the per-flow mutable overlay — delivery counter and,
// when reverse jitter is on, the flow's private jitter stream — for
// every attached flow in id order.
func (c *Cluster) SaveFlows(w *checkpoint.Writer) {
	w.Int(c.attached())
	for id, fr := range c.flows {
		if fr == nil {
			continue
		}
		w.Int(id)
		w.I64(fr.delivered)
		if c.reverseJitter > 0 {
			for _, word := range fr.jitter.State() {
				w.U64(word)
			}
		}
	}
}

// RestoreFlows overlays per-flow state saved by SaveFlows. Every saved
// flow must already be re-attached (static flows by the rebuild, churn
// flows by the arrivals restore) with the same id.
func (c *Cluster) RestoreFlows(r *checkpoint.Reader) {
	n := r.Count()
	if have := c.attached(); n != have {
		r.Fail("snapshot has %d attached flows, rebuilt cluster has %d", n, have)
		return
	}
	for i := 0; i < n; i++ {
		if r.Err() != nil {
			return
		}
		id := r.Int()
		fr := c.flowAt(id)
		if fr == nil {
			r.Fail("saved flow %d is not attached in the rebuilt cluster", id)
			return
		}
		fr.delivered = r.I64()
		if c.reverseJitter > 0 {
			var st [4]uint64
			for j := range st {
				st[j] = r.U64()
			}
			if r.Err() == nil {
				fr.jitter.SetState(st)
			}
		}
	}
}

// SaveDeliveries writes every shard's pending pure-delay hand-offs in
// shard order.
func (c *Cluster) SaveDeliveries(w *checkpoint.Writer, capOf func(*des.Scheduler) *des.TimerCapture) {
	for _, s := range c.shards {
		cap := capOf(&s.sched)
		w.Int(len(s.liveDel))
		for _, dv := range s.liveDel {
			w.Bool(dv.toSender)
			netsim.SavePacket(w, dv.p)
			w.Timer(cap.StateOf(dv.tm))
		}
	}
}

// RestoreDeliveries re-creates the pending hand-offs on each shard,
// resolving every endpoint from its re-attached flow.
func (c *Cluster) RestoreDeliveries(r *checkpoint.Reader) {
	for _, s := range c.shards {
		n := r.Count()
		for i := 0; i < n; i++ {
			if r.Err() != nil {
				return
			}
			toSender := r.Bool()
			p := s.GetPacket()
			netsim.RestorePacket(r, p)
			st := r.Timer()
			if !st.OK {
				r.Fail("shard %d: pending delivery saved without a live timer", s.id)
				return
			}
			fr := c.flowAt(int(p.Flow))
			if fr == nil {
				r.Fail("shard %d: pending delivery for unattached flow %d", s.id, p.Flow)
				return
			}
			to := fr.receiver
			if toSender {
				to = fr.sender
			}
			if to == nil {
				r.Fail("shard %d: pending delivery for flow %d targets a nil endpoint", s.id, p.Flow)
				return
			}
			dv := s.getDelivery(to, p, toSender)
			dv.tm = s.sched.RestoreTimer(st, dv.run)
		}
	}
}

// SaveInjections writes every shard's scheduled-but-unfired cross-shard
// arrivals in shard order: the destination-side packet copy, the
// message kind, and the injection timer (whose causal key is the source
// clock at emission).
func (c *Cluster) SaveInjections(w *checkpoint.Writer, capOf func(*des.Scheduler) *des.TimerCapture) {
	for _, s := range c.shards {
		cap := capOf(&s.sched)
		w.Int(len(s.liveInj))
		for _, in := range s.liveInj {
			w.U8(in.kind)
			netsim.SavePacket(w, in.p)
			w.Timer(cap.StateOf(in.tm))
		}
	}
}

// RestoreInjections re-creates each shard's pending injections with
// their original timer identities, preserving the deterministic merge
// order of the interrupted run's last barrier.
func (c *Cluster) RestoreInjections(r *checkpoint.Reader) {
	for _, s := range c.shards {
		n := r.Count()
		for i := 0; i < n; i++ {
			if r.Err() != nil {
				return
			}
			kind := r.U8()
			if kind != kindArrive && kind != kindToSender {
				r.Fail("shard %d: unknown injection kind %d", s.id, kind)
				return
			}
			var in *injection
			if m := len(s.ipool); m > 0 {
				in = s.ipool[m-1]
				s.ipool = s.ipool[:m-1]
			} else {
				in = &injection{s: s}
				in.run = in.fire
			}
			p := s.GetPacket()
			netsim.RestorePacket(r, p)
			st := r.Timer()
			if !st.OK {
				r.Fail("shard %d: pending injection saved without a live timer", s.id)
				return
			}
			in.p = p
			in.kind = kind
			in.idx = int32(len(s.liveInj))
			s.liveInj = append(s.liveInj, in)
			s.pendingInjections++
			in.tm = s.sched.RestoreTimer(st, in.run)
		}
	}
}

// SaveLedger writes each shard's freelist issue/return counters and its
// handoff count in shard order, then the watched per-flow in-network
// accounts (WatchFlows).
func (c *Cluster) SaveLedger(w *checkpoint.Writer) {
	for _, s := range c.shards {
		w.I64(s.issued)
		w.I64(s.returned)
		w.I64(s.handoffs)
	}
	w.Int(len(c.lcCount))
	for _, v := range c.lcCount {
		w.I64(int64(v))
	}
}

// RestoreLedger overlays the counters saved by SaveLedger. It runs last
// in the restore sequence: every restore step before it drew its
// packets through the shards' GetPacket (inflating issued), and this
// overlay settles each ledger back to the snapshot's truth so
// CheckLeaks holds immediately.
func (c *Cluster) RestoreLedger(r *checkpoint.Reader) {
	for _, s := range c.shards {
		s.issued = r.I64()
		s.returned = r.I64()
		s.handoffs = r.I64()
	}
	if n := r.Count(); n != len(c.lcCount) {
		r.Fail("snapshot watches %d flows, rebuilt cluster watches %d", n, len(c.lcCount))
		return
	}
	for i := range c.lcCount {
		c.lcCount[i] = int32(r.I64())
	}
}
