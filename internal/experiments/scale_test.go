package experiments

import "testing"

// quickScale is one scaled-down scale-out cell; the TestMain-armed
// LeakCheck verifies the freelist invariant at the end of every run.
func quickScale(hops, flows int, seed uint64) TopoSimResult {
	cfg := scaleChainBase(Sizing{SimFactor: 0.05})
	cfg.Hops = hops
	cfg.NTFRC = flows / 2
	cfg.NTCP = flows - flows/2
	cfg.Capacity *= float64(flows) / 64
	cfg.Seed = seed
	return RunTopoSim(cfg)
}

// TestScaleChainDeterministicAndLeakFree replays a many-hop, many-flow
// cell: same seed must give identical results — through the cluster
// pool, so the second run reuses the first run's scheduler wheels and
// packet pool — and every run must satisfy the leak invariant (armed in
// TestMain, enforced inside RunTopoSim).
func TestScaleChainDeterministicAndLeakFree(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-out packet-level run skipped in -short mode")
	}
	t.Parallel()
	a := quickScale(12, 128, 51)
	b := quickScale(12, 128, 51)
	if a.TFRC != b.TFRC || a.TCP != b.TCP || a.Cross != b.Cross ||
		a.EventsFired != b.EventsFired {
		t.Fatalf("same seed, different scale-out results:\n%+v\n%+v", a.TFRC, b.TFRC)
	}
	if a.TFRC.Flows != 64 || a.TCP.Flows != 64 || a.Cross.Flows != 24 {
		t.Fatalf("flow counts: tfrc=%d tcp=%d cross=%d", a.TFRC.Flows, a.TCP.Flows, a.Cross.Flows)
	}
}

// TestScaleChainEventLoadGrows pins the point of the family: the
// discrete-event load must grow with both the chain length and the
// population, so the sweep genuinely pushes the scheduler's deep-queue
// regime.
func TestScaleChainEventLoadGrows(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-out packet-level sweep skipped in -short mode")
	}
	t.Parallel()
	small := quickScale(8, 64, 52)
	longer := quickScale(16, 64, 52)
	wider := quickScale(8, 256, 52)
	if longer.EventsFired <= small.EventsFired {
		t.Fatalf("events did not grow with hops: 8-hop %d vs 16-hop %d",
			small.EventsFired, longer.EventsFired)
	}
	if wider.EventsFired <= small.EventsFired {
		t.Fatalf("events did not grow with flows: 64-flow %d vs 256-flow %d",
			small.EventsFired, wider.EventsFired)
	}
}
