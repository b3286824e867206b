package experiments

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/arrivals"
	"repro/internal/fault"
)

// benchSim times one whole simulation per op and reports events/sec
// (scheduler events per second of wall time, the end-to-end number the
// hot-path work targets) and events/run (divide allocs/op by it for
// allocations per simulated event). run returns the events it fired.
func benchSim(b *testing.B, run func() uint64) {
	var events uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		events = run()
	}
	b.StopTimer()
	if events > 0 {
		secPerOp := b.Elapsed().Seconds() / float64(b.N)
		b.ReportMetric(float64(events)/secPerOp, "events/sec")
		b.ReportMetric(float64(events), "events/run")
	}
}

// dumbbellBenchConfig is a mid-size run of the lab testbed profile:
// 8 TFRC + 8 TCP flows through the 10 Mb/s DropTail-100 bottleneck for
// 30 simulated seconds, long enough that the steady-state event loop
// (transmissions, deliveries, acks, protocol timers) dominates setup.
func dumbbellBenchConfig() SimConfig {
	return LabDT100.Scale(0.1, 0).Config(8, 8, 17)
}

// parkingLotBenchConfig is 4 long TFRC + 4 long TCP flows across a
// three-bottleneck parking-lot chain with 2 crossing TCP flows per hop,
// 25 measured seconds: against the dumbbell it isolates the cost of
// multi-hop forwarding.
func parkingLotBenchConfig() TopoSimConfig {
	return TopoSimConfig{
		Hops:          3,
		Capacity:      1.25e6,
		Buffer:        64,
		HopDelay:      0.01,
		AccessDelay:   0.005,
		RevDelay:      0.025,
		NTFRC:         4,
		NTCP:          4,
		CrossPerHop:   2,
		CrossRevDelay: 0.02,
		L:             8,
		Comprehensive: true,
		Duration:      25,
		Warmup:        5,
		Seed:          17,
		RevJitter:     0.2,
	}
}

// deepChainBenchConfig is the scale-out regime the scalechain scenarios
// sweep: 64 TFRC + 64 TCP long flows across a 12-hop chain with 2
// crossing TCP flows per hop (152 flows), per-hop capacity scaled so
// each long flow keeps the standard share. Its pending-event set is an
// order of magnitude beyond the dumbbell's.
func deepChainBenchConfig() TopoSimConfig {
	return TopoSimConfig{
		Hops:          12,
		Capacity:      2.5e6,
		Buffer:        64,
		HopDelay:      0.005,
		AccessDelay:   0.005,
		RevDelay:      0.03,
		NTFRC:         64,
		NTCP:          64,
		CrossPerHop:   2,
		CrossRevDelay: 0.02,
		L:             8,
		Comprehensive: true,
		Duration:      8,
		Warmup:        2,
		Seed:          17,
		RevJitter:     0.2,
	}
}

// shardedChainConfig is the largest cell of the scalechain sweep (16
// hops, 256 TFRC + 256 TCP long flows, 2 crossing TCP flows per hop:
// 544 flows). The sharded-chain pair runs it at two shard counts; the
// determinism contract makes their event counts identical, so their
// events/sec ratio is the whole-simulation effect of the sharded engine.
func shardedChainConfig(shards int) TopoSimConfig {
	return TopoSimConfig{
		Hops:          16,
		Capacity:      1e7,
		Buffer:        64,
		HopDelay:      0.005,
		AccessDelay:   0.005,
		RevDelay:      0.03,
		NTFRC:         256,
		NTCP:          256,
		CrossPerHop:   2,
		CrossRevDelay: 0.02,
		L:             8,
		Comprehensive: true,
		Duration:      3,
		Warmup:        1,
		Seed:          17,
		RevJitter:     0.2,
		Shards:        shards,
	}
}

// staggeredStartChainConfig is the deep chain's 152 flows with a 10 s
// warmup and a 1 s measured window. Flow starts spread over the first
// 5 simulated seconds (half the warmup, capped at 5 s), so most of the
// run is the startup phase: start events scheduled in seed order at
// scattered instants while the pending set fills.
func staggeredStartChainConfig() TopoSimConfig {
	cfg := deepChainBenchConfig()
	cfg.Warmup = 10
	cfg.Duration = 1
	return cfg
}

// faultyChainConfig is the 8-hop fault-family chain under a combined
// plan: a flush-policy outage of the mid-chain bottleneck, a
// Gilbert–Elliott bursty loss process on the first hop and a mid-run
// capacity renegotiation further down, so the per-packet fault hook,
// the GE lottery and the Down/Up/SetRate event path are all measured.
func faultyChainConfig() TopoSimConfig {
	cfg := TopoSimConfig{
		Hops:          8,
		Capacity:      2.5e6,
		Buffer:        64,
		HopDelay:      0.01,
		AccessDelay:   0.005,
		RevDelay:      0.025,
		NTFRC:         8,
		NTCP:          8,
		CrossPerHop:   1,
		CrossRevDelay: 0.02,
		L:             8,
		Comprehensive: true,
		Duration:      8,
		Warmup:        2,
		Seed:          17,
		RevJitter:     0.2,
	}
	// Plans are pure data (Arm binds a fresh copy of the mutable state
	// each run), so one plan serves every iteration.
	cfg.Faults = (&fault.Plan{Seed: cfg.Seed}).
		Flap(4, cfg.Warmup+2, cfg.Warmup+3, fault.Flush).
		Burst(0, 400, 25, 0.6).
		Squeeze(6, cfg.Warmup+1, cfg.Warmup+4, 0.5*cfg.Capacity, cfg.Capacity)
	return cfg
}

// churnSteadyConfig is the parking-lot dumbbell under persistent
// TFRC/TCP flows plus all three churn protocols: Poisson TFRC
// transfers, Weibull TCP mice, a reverse-path TCP class over the
// mirrored chain and a CBR session base. durScale stretches the
// measured window and the arrival budget with it, so two runs at
// different scales hold peak population fixed while the arrival count
// doubles.
func churnSteadyConfig(durScale float64) TopoSimConfig {
	cfg := TopoSimConfig{
		Hops:          3,
		Capacity:      1.25e6,
		Buffer:        64,
		HopDelay:      0.01,
		AccessDelay:   0.005,
		RevDelay:      0.025,
		NTFRC:         2,
		NTCP:          2,
		L:             8,
		Comprehensive: true,
		Duration:      15 * durScale,
		Warmup:        5,
		Seed:          17,
		RevJitter:     0.2,
		MirrorRev:     true,
	}
	end := cfg.Warmup + cfg.Duration
	maxA := int(1200 * durScale)
	cfg.Churn = []arrivals.Spec{
		{
			Name: "tfrc", Proto: arrivals.TFRC,
			Gap:  arrivals.Gap{Kind: arrivals.Poisson, Rate: 8},
			Size: arrivals.Size{Kind: arrivals.Fixed, Packets: 30},
			Stop: end, MaxArrivals: maxA, Seed: 9901,
		},
		{
			Name: "mice", Proto: arrivals.TCP,
			Gap:  arrivals.Gap{Kind: arrivals.Weibull, Shape: 0.6, Scale: 0.04},
			Size: arrivals.Size{Kind: arrivals.Pareto, Shape: 1.3, MinPackets: 4, CapPackets: 80},
			Stop: end, MaxArrivals: 2 * maxA, Seed: 9902,
		},
		{
			Name: "rev", Proto: arrivals.TCP, Reverse: true,
			Gap:  arrivals.Gap{Kind: arrivals.Poisson, Rate: 6},
			Size: arrivals.Size{Kind: arrivals.Fixed, Packets: 6},
			Stop: end, MaxArrivals: maxA, Seed: 9903,
		},
		{
			Name: "cbr", Proto: arrivals.CBR, CBRRate: 100,
			Gap:  arrivals.Gap{Kind: arrivals.Poisson, Rate: 4},
			Size: arrivals.Size{Kind: arrivals.Fixed, Packets: 4},
			Stop: end, MaxArrivals: maxA, Seed: 9904,
		},
	}
	return cfg
}

// reversePathBenchConfig is 2 TFRC + 2 TCP primary flows whose feedback
// and ACKs cross a real reverse queue shared with 2 opposing-direction
// TCP flows and cross traffic, 20 measured seconds: against the
// dumbbell it isolates the cost of reverse-path routing.
func reversePathBenchConfig() RevSimConfig {
	return RevSimConfig{
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
		BackTCP:       2,
		RevCrossLoad:  0.3,
		L:             8,
		Comprehensive: true,
		Duration:      20,
		Warmup:        5,
		Seed:          17,
		RevJitter:     0.2,
	}
}

func BenchmarkDumbbellSteadyState(b *testing.B) {
	cfg := dumbbellBenchConfig()
	benchSim(b, func() uint64 { return RunSim(cfg).EventsFired })
}

func BenchmarkParkingLotSteadyState(b *testing.B) {
	cfg := parkingLotBenchConfig()
	benchSim(b, func() uint64 { return RunTopoSim(cfg).EventsFired })
}

// BenchmarkCheckpointedChainSteadyState runs the parking-lot workload
// with a full snapshot written at the end of warmup and every 5
// simulated seconds (five per run), bounding the checkpoint subsystem's
// cost when on; BenchmarkParkingLotSteadyState is the off reference.
func BenchmarkCheckpointedChainSteadyState(b *testing.B) {
	cfg := parkingLotBenchConfig()
	cfg.Label = "bench checkpointed chain"
	old := Checkpoint
	Checkpoint = CheckpointOptions{Every: 5, Dir: b.TempDir()}
	defer func() { Checkpoint = old }()
	benchSim(b, func() uint64 { return RunTopoSim(cfg).EventsFired })
}

func BenchmarkDeepChainSteadyState(b *testing.B) {
	cfg := deepChainBenchConfig()
	benchSim(b, func() uint64 { return RunTopoSim(cfg).EventsFired })
}

// BenchmarkStaggeredStartChain is the startup-heavy chain: against
// BenchmarkDeepChainSteadyState it weights the scheduler's handling of
// events scheduled behind already-pending later ones.
func BenchmarkStaggeredStartChain(b *testing.B) {
	cfg := staggeredStartChainConfig()
	benchSim(b, func() uint64 { return RunTopoSim(cfg).EventsFired })
}

// BenchmarkShardedChainBaseline is the sharded-chain workload on one
// domain: the denominator of the sharded speedup.
func BenchmarkShardedChainBaseline(b *testing.B) {
	cfg := shardedChainConfig(1)
	benchSim(b, func() uint64 { return RunTopoSim(cfg).EventsFired })
}

// BenchmarkShardedChainSteadyState splits the same simulation across 4
// shards. On a multi-core host the shards advance concurrently; on one
// CPU the sequential window driver runs and the ratio to the baseline
// is the engine's coordination overhead instead.
func BenchmarkShardedChainSteadyState(b *testing.B) {
	cfg := shardedChainConfig(4)
	benchSim(b, func() uint64 { return RunTopoSim(cfg).EventsFired })
}

// BenchmarkFaultyChainSteadyState bounds the overhead the fault
// subsystem adds to a faulted run; links without a plan entry keep a
// nil hook and pay nothing.
func BenchmarkFaultyChainSteadyState(b *testing.B) {
	cfg := faultyChainConfig()
	benchSim(b, func() uint64 { return RunTopoSim(cfg).EventsFired })
}

// BenchmarkChurnSteadyState bounds the arrival engine's
// draw/attach/detach cost: several hundred finite TFRC/TCP/CBR
// transfers arrive, complete and are reclaimed per run.
func BenchmarkChurnSteadyState(b *testing.B) {
	cfg := churnSteadyConfig(1)
	benchSim(b, func() uint64 { return RunTopoSim(cfg).EventsFired })
}

func BenchmarkReversePathSteadyState(b *testing.B) {
	cfg := reversePathBenchConfig()
	benchSim(b, func() uint64 { return RunRevSim(cfg).EventsFired })
}

// Steady-state runs must be allocation-flat in the simulated window:
// doubling the measured window doubles the events served (and, under
// churn, the transfers) but holds the flow population and the pooled
// engine's capacities fixed, so allocations per run may not grow with
// it. A linear term means something allocates per event or per arrival
// instead of recycling. Each row runs with the metrics capture off and
// on.
func TestChurnSteadyStateAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector randomizes sync.Pool reuse")
	}
	// Each row runs once with its measured window scaled by k and
	// returns the count that must scale with the window: arrivals for
	// churn, events fired otherwise.
	rows := []struct {
		name string
		run  func(k float64) uint64
	}{
		{"churn", func(k float64) uint64 {
			var n uint64
			for _, c := range RunTopoSim(churnSteadyConfig(k)).Churn {
				n += uint64(c.Arrivals)
			}
			return n
		}},
		{"dumbbell", func(k float64) uint64 {
			cfg := dumbbellBenchConfig()
			cfg.Duration *= k
			return RunSim(cfg).EventsFired
		}},
		{"reversepath", func(k float64) uint64 {
			cfg := reversePathBenchConfig()
			cfg.Duration *= k
			return RunRevSim(cfg).EventsFired
		}},
		{"deepchain", func(k float64) uint64 {
			cfg := deepChainBenchConfig()
			cfg.Duration *= k
			return RunTopoSim(cfg).EventsFired
		}},
	}
	old := Observe
	defer func() { Observe = old }()
	// With the collector off, the cluster pool a warm-up run refills
	// survives into the measured run, so the counts below are per-run
	// allocations, not pool-drain noise.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var m0, m1 runtime.MemStats
	// measure runs one warm-up and one measured run at scale k and
	// returns the measured run's allocations and scaling count.
	measure := func(run func(float64) uint64, k float64) (mallocs, work uint64) {
		run(k)
		runtime.ReadMemStats(&m0)
		work = run(k)
		runtime.ReadMemStats(&m1)
		return m1.Mallocs - m0.Mallocs, work
	}
	for _, metrics := range []bool{false, true} {
		for _, r := range rows {
			t.Run(fmt.Sprintf("%s/metrics=%v", r.name, metrics), func(t *testing.T) {
				Observe = ObserveOptions{Metrics: metrics}
				a1, w1 := measure(r.run, 1)
				a2, w2 := measure(r.run, 2)
				if w1 == 0 || float64(w2) < 1.7*float64(w1) {
					t.Fatalf("work did not scale with the window: %d vs %d", w1, w2)
				}
				// The band absorbs the slightly larger tables of the
				// doubled run; one allocation per event or per arrival
				// blows far past it.
				if limit := float64(a1)*1.25 + 256; float64(a2) > limit {
					t.Fatalf("allocs/run scaled with the window: %d at 1x (work %d) vs %d at 2x (work %d)",
						a1, w1, a2, w2)
				}
				t.Logf("allocs/run %d at 1x, %d at 2x (work %d -> %d)", a1, a2, w1, w2)
			})
		}
	}
}
