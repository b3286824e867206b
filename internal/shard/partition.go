package shard

import (
	"fmt"
	"math"

	"repro/internal/netsim"
)

// Partition splits the declared node graph into at most k shards and
// materializes every link on its owning shard's scheduler. Call it
// after AddNode/AddLink and the route/jitter declarations, before
// attaching flows.
//
// The partitioner works in two stages:
//
//  1. Co-location constraints. A zero-delay link provides no lookahead,
//     so its endpoints must share a shard: union-find merges them into
//     atoms. (Pure-delay reverse paths are constrained at seal time
//     instead — flows attach after the partition — by requiring a
//     positive minimum jittered reverse delay across any split.)
//
//  2. Contiguous greedy assignment. Atoms, ordered by their smallest
//     node id, are packed into at most k contiguous segments of roughly
//     equal weight, where a node weighs 1 plus its out-degree — a cheap
//     proxy for the event load its links generate. Contiguity matches
//     the chain/parking-lot graphs this repo sweeps (node ids follow
//     the path), keeps every cut a genuine chain cut, and — crucial for
//     the determinism contract — makes the partition a pure function of
//     the declared graph and k.
//
// The effective shard count (Shards) can come out lower than k when the
// graph has fewer atoms; k <= 1 gives the one-domain (serial) partition.
func (c *Cluster) Partition(k int) {
	if len(c.shards) > 0 {
		panic("shard: Partition called twice")
	}
	if k < 1 {
		k = 1
	}
	n := len(c.nodes)
	if n == 0 {
		panic("shard: Partition on an empty graph")
	}

	// Stage 1: union endpoints of zero-delay links. The smaller id
	// always becomes the parent, so every atom's root is its smallest
	// node.
	parent := resize(c.parent, n)
	c.parent = parent
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, sp := range c.specs {
		if sp.delay <= 0 {
			a, b := find(int(sp.from)), find(int(sp.to))
			if a != b {
				if a > b {
					a, b = b, a
				}
				parent[b] = a // smaller id wins: atom order stays node order
			}
		}
	}

	// Atoms in order of their smallest node id, with weights. A node's
	// root is never larger than the node, so scanning nodes in id order
	// meets every root before the rest of its atom.
	weight := resize(c.weight, n)
	c.weight = weight
	for i := range weight {
		weight[i] = 1
	}
	for _, sp := range c.specs {
		weight[sp.from]++
	}
	atomOf := resize(c.atomOf, n)
	c.atomOf = atomOf
	atomWeight := c.atomWeight[:0]
	var total float64
	for v := 0; v < n; v++ {
		if root := find(v); root == v {
			atomOf[v] = len(atomWeight)
			atomWeight = append(atomWeight, 0)
		} else {
			atomOf[v] = atomOf[root]
		}
		atomWeight[atomOf[v]] += weight[v]
		total += weight[v]
	}
	c.atomWeight = atomWeight
	atoms := len(atomWeight)
	if k > atoms {
		k = atoms
	}

	// Stage 2: pack atoms into <= k contiguous segments. A segment
	// closes once it reaches the ideal share, but never so greedily that
	// the remaining atoms could not fill the remaining segments.
	atomShard := resize(c.atomShard, atoms)
	c.atomShard = atomShard
	target := total / float64(k)
	seg, segWeight := 0, 0.0
	for ai := range atomWeight {
		remainingAtoms := atoms - ai
		remainingSegs := k - seg
		if segWeight > 0 && (segWeight >= target || remainingAtoms == remainingSegs) && seg < k-1 {
			seg++
			segWeight = 0
		}
		atomShard[ai] = seg
		segWeight += atomWeight[ai]
	}
	c.k = seg + 1
	c.nodeShard = resize(c.nodeShard, n)
	for v := range c.nodeShard {
		c.nodeShard[v] = atomShard[atomOf[v]]
	}

	// Materialize shards and links. Each link lives on the shard of its
	// source node; a link whose destination is elsewhere gets a Handoff
	// that bundles the packet toward the destination shard with arrival
	// time handoff-now + propagation delay.
	for i := 0; i < c.k; i++ {
		if i < cap(c.shards) {
			c.shards = c.shards[:i+1]
			if c.shards[i] == nil {
				c.shards[i] = newShard()
			}
		} else {
			c.shards = append(c.shards, newShard())
		}
		s := c.shards[i]
		s.c = c
		s.id = i
		for parity := range s.out {
			for len(s.out[parity]) < c.k {
				s.out[parity] = append(s.out[parity], nil)
			}
			s.out[parity] = s.out[parity][:c.k]
		}
	}
	c.linkShard = c.linkShard[:0]
	c.links = c.links[:0]
	for _, sp := range c.specs {
		owner := c.nodeShard[sp.from]
		c.linkShard = append(c.linkShard, owner)
		src := c.shards[owner]
		l := netsim.NewLink(&src.sched, sp.rate, sp.delay, sp.queue)
		l.Release = src.releaseFn
		if dst := c.nodeShard[sp.to]; dst != owner {
			delay := sp.delay
			l.Deliver = func(p *netsim.Packet) {
				panic("shard: Deliver on a cut link (Handoff owns the propagation stage)")
			}
			l.Handoff = func(p *netsim.Packet) {
				src.emit(dst, kindArrive, p, src.sched.Now()+delay)
			}
		} else {
			l.Deliver = src.arriveFn
		}
		src.links = append(src.links, l)
		c.links = append(c.links, l)
	}
}

// newShard allocates a shard with its link sinks bound.
func newShard() *Shard {
	s := &Shard{}
	s.arriveFn = func(p *netsim.Packet) { s.c.arrive(s, p) }
	s.releaseFn = s.PutPacket
	return s
}

// resize returns s with length n, reusing its backing array when large
// enough. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// seal computes the synchronization horizon on the first Run, once the
// flow population is known: the minimum latency over every cross-shard
// channel — cut-link propagation delays and, for flows whose pure-delay
// reverse path crosses shards, the minimum jittered reverse delay.
func (c *Cluster) seal() {
	if c.sealed {
		return
	}
	c.mustPartitioned()
	c.sealed = true
	if c.k == 1 {
		c.horizon = 0
		return
	}
	h := math.Inf(1)
	for li := range c.specs {
		if c.nodeShard[c.specs[li].from] != c.nodeShard[c.specs[li].to] {
			h = math.Min(h, c.specs[li].delay)
		}
	}
	for _, fs := range c.flows {
		if fs == nil {
			continue
		}
		if len(fs.revRoute) == 0 && fs.sender != nil && fs.senderShard != fs.receiverShard {
			h = math.Min(h, fs.revDelay*(1-c.reverseJitter))
		}
	}
	for _, d := range c.declaredRev {
		h = math.Min(h, d*(1-c.reverseJitter))
	}
	if math.IsInf(h, 1) {
		// Shards never exchange messages: each runs independently to the
		// phase boundary. Model that as an unbounded window.
		c.horizon = math.Inf(1)
		return
	}
	if h <= 0 {
		panic(fmt.Sprintf("shard: zero lookahead across a shard cut (horizon %v); reduce the shard count or give cross-shard channels positive delay", h))
	}
	c.horizon = h
}
