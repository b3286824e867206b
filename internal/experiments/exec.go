package experiments

import (
	"sync"

	"repro/internal/obs"
	"repro/internal/shard"
)

// shardForceParallel routes sharded runs through the goroutine-per-
// shard barrier driver even on a single-CPU host. Tests set it (under
// -race) to prove the parallel driver produces the same bytes the
// sequential window loop does.
var shardForceParallel bool

// clusterPool recycles the network engine across runs. runSpec.run
// (behind RunSim, RunTopoSim and RunRevSim) draws a cluster, declares
// the run's graph in it, and returns it: the shards' schedulers (wheel
// node slabs, slot tables), packet and delivery pools, flow records and
// bundle buffers survive Reset, so a replication pays for its protocol
// state only, not for the simulator substrate. Under the runner's
// worker pool the clusters are recycled per worker (sync.Pool is
// per-P).
//
// Reuse is invisible to results: Reset restores the exact zero-value
// semantics (clock 0, empty graph, fresh counters), every packet is
// zeroed on Get, and event order depends only on (time, origin, seq) —
// so a run on a tenth-hand cluster is byte-for-byte the run it would be
// on a fresh one. The determinism regression tests pin this.
var clusterPool = sync.Pool{New: func() any { return shard.New() }}

// getCluster returns a reset pooled cluster, ready for one run's graph
// declarations.
func getCluster() *shard.Cluster {
	c := clusterPool.Get().(*shard.Cluster)
	c.Reset()
	c.ForceParallel = shardForceParallel
	return c
}

// publishLive registers the partitioned cluster's per-shard snapshots
// on the live-introspection surface when Observe.Live is on, and
// returns the registration key ("" when off). It must run after
// Partition: the snapshot function reads the shard table Partition
// writes, and the expvar goroutine may call it at any moment. Shard
// snapshots are atomics-backed, so polling mid-run never perturbs the
// simulation.
func publishLive(c *shard.Cluster) string {
	if !Observe.Live {
		return ""
	}
	return obs.PublishLive("cluster", func() any { return c.Snapshots() })
}

// putCluster retires the run's live registration and recycles the
// cluster once the run's results have been copied out — nothing a run
// returns may alias cluster memory. A poisoned cluster (its
// stall detector tripped) may still be referenced by an abandoned shard
// driver, so it is leaked rather than pooled.
func putCluster(c *shard.Cluster, liveKey string) {
	if liveKey != "" {
		obs.UnpublishLive(liveKey)
	}
	if !c.Poisoned() {
		clusterPool.Put(c)
	}
}
