package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/arrivals"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/formula"
	"repro/internal/lossmodel"
	"repro/internal/rng"
	"repro/internal/topology"
)

// A workload is one named job list of the paper's own computations. plan
// builds the list from the seed alone; every job's result is digested by
// the oracle and folded into per-layer counts by count.
type workload struct {
	name string
	// pinKey names the pinned-digest table the workload is checked
	// against; the two chain workloads share one, because a sharded run
	// must reproduce its serial twin bit for bit.
	pinKey string
	// ckptEvery is the snapshot cadence in simulated seconds (0: off).
	ckptEvery float64
	plan      func(seed uint64) []job
	// check rejects results that are deterministic but implausible.
	check func(res any) error
	count func(res any, c counts)
}

// job is one unit of work of a workload: a labelled call into a public
// entry point of the simulator.
type job struct {
	name string
	seed uint64
	run  func(sp *spanCtx) any
	// twin, when set, reruns the job's configuration on the serial
	// engine without checkpoints; the verification phase checks that
	// both results digest the same.
	twin func() any
}

// counts accumulates per-layer counters over one pass.
type counts map[string]float64

var workloads = []*workload{mcControl, dumbbell, chainChurn, chainSharded}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// --- mc-control -------------------------------------------------------

// mcEvents and mcCompEvents size the Monte Carlo runs of the basic and
// the comprehensive control: measured loss events per job.
const mcEvents, mcCompEvents = 20000, 4000

// mcControl is the paper's analytic core: basic and comprehensive
// control driven by designed shifted-exponential loss processes over
// the Figure 3, 3-comprehensive and 4 grids.
var mcControl = &workload{
	name:   "mc-control",
	pinKey: "mc-control",
	plan: func(seed uint64) []job {
		r := rng.New(seed ^ 0x6d632d636f6e74)
		sqrt := formula.NewSQRT(formula.DefaultParams())
		pftk := formula.NewPFTKSimplified(formula.DefaultParams())
		Ls := []int{1, 2, 4, 8, 16}
		var jobs []job
		add := func(name string, comprehensive bool, f formula.Formula, p, cv float64, L, events int) {
			s := r.Uint64()
			jobs = append(jobs, job{name: name, seed: s, run: func(sp *spanCtx) any {
				cfg := core.Config{
					Formula: f,
					Weights: estimator.TFRCWeights(L),
					Process: lossmodel.DesignShiftedExp(p, cv, rng.New(s)),
					Events:  events,
				}
				defer sp.span("sim")()
				if comprehensive {
					return core.RunComprehensive(cfg)
				}
				return core.RunBasic(cfg)
			}})
		}
		const cv3 = 1 - 1.0/1000
		for _, f := range []struct {
			name string
			f    formula.Formula
		}{{"sqrt", sqrt}, {"pftksimp", pftk}} {
			for _, p := range []float64{0.01, 0.05, 0.1, 0.2, 0.4} {
				for _, L := range Ls {
					add(fmt.Sprintf("fig3-%s p=%g L=%d", f.name, p, L), false, f.f, p, cv3, L, mcEvents)
				}
			}
		}
		for _, p := range []float64{0.01, 0.1, 0.2, 0.4} {
			for _, L := range Ls {
				add(fmt.Sprintf("fig3c p=%g L=%d", p, L), true, pftk, p, cv3, L, mcCompEvents)
			}
		}
		for _, p := range []float64{0.01, 0.1} {
			for _, cv := range []float64{0.1, 0.5, 0.9, 0.999} {
				for _, L := range Ls {
					add(fmt.Sprintf("fig4 p=%g cv=%g L=%d", p, cv, L), false, pftk, p, cv, L, mcEvents)
				}
			}
		}
		return jobs
	},
	check: func(res any) error {
		r := res.(core.Result)
		if !(r.Normalized > 0) || math.IsInf(r.Normalized, 0) || r.Events <= 0 {
			return fmt.Errorf("implausible control result: x/f(p)=%g over %d events", r.Normalized, r.Events)
		}
		return nil
	},
	count: func(res any, c counts) {
		c["core.loss_events"] += float64(res.(core.Result).Events)
	},
}

// --- dumbbell ----------------------------------------------------------

// dumbbellSeconds and dumbbellWarmup size each dumbbell run in
// simulated seconds.
const dumbbellSeconds, dumbbellWarmup = 40.0, 5.0

// dumbbell runs the paper's packet experiments (Figures 5, 7-19) on the
// legacy dumbbell front-end: lab DropTail, lab RED and one wide-area
// profile with cross traffic, over N TFRC + N TCP pairs, with the
// Poisson probe on some cells.
var dumbbell = &workload{
	name:   "dumbbell",
	pinKey: "dumbbell",
	plan: func(seed uint64) []job {
		r := rng.New(seed ^ 0x64756d62)
		var jobs []job
		for _, pr := range []experiments.Profile{experiments.LabDT100, experiments.LabRED, experiments.KTH} {
			pr.Duration, pr.Warmup = dumbbellSeconds, dumbbellWarmup
			for _, L := range []int{2, 8} {
				for _, pairs := range []int{1, 4, 8, 16} {
					cfg := pr.Config(pairs, L, r.Uint64())
					if pairs == 4 || pairs == 16 {
						cfg.ProbeRate = 20
					}
					name := fmt.Sprintf("%s L=%d pairs=%d probe=%t", pr.Name, L, pairs, cfg.ProbeRate > 0)
					jobs = append(jobs, job{name: name, seed: cfg.Seed, run: func(sp *spanCtx) any {
						defer sp.span("sim")()
						return experiments.RunSim(cfg)
					}})
				}
			}
		}
		return jobs
	},
	check: func(res any) error {
		r := res.(experiments.SimResult)
		if !(r.TFRC.Throughput > 0) || !(r.TCP.Throughput > 0) || r.EventsFired == 0 {
			return fmt.Errorf("implausible dumbbell result: x_tfrc=%g x_tcp=%g events=%d",
				r.TFRC.Throughput, r.TCP.Throughput, r.EventsFired)
		}
		return nil
	},
	count: func(res any, c counts) {
		r := res.(experiments.SimResult)
		c["des.events"] += float64(r.EventsFired)
		countObs(r.Obs, c)
	},
}

// --- chain-churn and chain-sharded ---------------------------------------

// Chain run sizing in simulated seconds, and the checkpoint cadence of
// chain-churn.
const chainSeconds, chainWarmup, chainCkptEvery = 8.0, 2.0, 2.0

// chainCell is one chain job's name and configuration.
type chainCell struct {
	name string
	cfg  experiments.TopoSimConfig
}

// chainConfigs is the shared job list of both chain workloads: an 8-hop
// chain with long TFRC+TCP flows, crossing TCP, a mirrored reverse
// chain, three churn classes and a fault plan (a flush outage on a
// middle hop and Gilbert–Elliott burst loss on the first).
func chainConfigs(seed uint64) []chainCell {
	r := rng.New(seed ^ 0x636861696e)
	var cells []chainCell
	for i, pop := range []int{4, 6, 8, 4, 6, 8} {
		end := chainWarmup + chainSeconds
		cfg := experiments.TopoSimConfig{
			Hops: 8, Capacity: 2.5e6, Buffer: 64, HopDelay: 0.01,
			AccessDelay: 0.005, RevDelay: 0.025,
			NTFRC: pop, NTCP: pop, CrossPerHop: 1, CrossRevDelay: 0.02,
			L: 8, Comprehensive: true,
			Duration: chainSeconds, Warmup: chainWarmup,
			Seed: r.Uint64(), RevJitter: 0.2, MirrorRev: true,
		}
		down := chainWarmup + 0.4*chainSeconds
		plan := &fault.Plan{Seed: r.Uint64()}
		plan.Flap(topology.LinkID(4), down, down+0.1*chainSeconds, fault.Flush)
		plan.Burst(0, 400, 25, 0.6)
		cfg.Faults = plan
		// Fixed transfer sizes and arrival budgets that bind well before
		// the arrival window closes keep the work per job nearly
		// independent of the seed; the seed still moves every arrival
		// instant and every loss.
		cfg.Churn = []arrivals.Spec{
			{
				Name: "tfrc-poisson", Proto: arrivals.TFRC,
				Gap:   arrivals.Gap{Kind: arrivals.Poisson, Rate: 8},
				Size:  arrivals.Size{Kind: arrivals.Fixed, Packets: 60},
				Start: 0.5, Stop: end, MaxArrivals: 40, Seed: r.Uint64(),
			},
			{
				Name: "tcp-mice", Proto: arrivals.TCP,
				Gap:  arrivals.Gap{Kind: arrivals.Weibull, Shape: 0.6, Scale: 0.01},
				Size: arrivals.Size{Kind: arrivals.Fixed, Packets: 20},
				Stop: end, MaxArrivals: 300, Seed: r.Uint64(),
			},
			{
				Name: "tcp-reverse", Proto: arrivals.TCP, Reverse: true,
				Gap:  arrivals.Gap{Kind: arrivals.Poisson, Rate: 40},
				Size: arrivals.Size{Kind: arrivals.Fixed, Packets: 20},
				Stop: end, MaxArrivals: 150, Seed: r.Uint64(),
			},
		}
		cells = append(cells, chainCell{name: fmt.Sprintf("chain%d pop=%d", i, pop), cfg: cfg})
	}
	return cells
}

// chainOut is one chain-churn job's output: the uninterrupted run, the
// run resumed from its last snapshot, and what the snapshot cost.
type chainOut struct {
	full, resumed experiments.TopoSimResult
	snapBytes     int
	readDur       time.Duration
	encodeDur     time.Duration
	resumeDur     time.Duration
}

// chainChurn runs the chain configs serially with a snapshot every
// chainCkptEvery simulated seconds, then resumes each job once from its
// last snapshot.
var chainChurn = &workload{
	name:      "chain-churn",
	pinKey:    "chain",
	ckptEvery: chainCkptEvery,
	plan: func(seed uint64) []job {
		var jobs []job
		for _, c := range chainConfigs(seed) {
			cfg := c.cfg
			cfg.Label = c.name
			jobs = append(jobs, job{name: c.name, seed: cfg.Seed, run: func(sp *spanCtx) any {
				return runChainCheckpointed(sp, cfg)
			}})
		}
		return jobs
	},
	check: checkChain,
	count: func(res any, c counts) {
		out := res.(chainOut)
		countChain(out.full, c)
		c["checkpoint.snapshots"] += float64(snapshotsPerRun())
		c["checkpoint.bytes"] += float64(out.snapBytes)
		c["checkpoint.read_s"] += out.readDur.Seconds()
		c["checkpoint.encode_s"] += out.encodeDur.Seconds()
		c["checkpoint.resume_s"] += out.resumeDur.Seconds()
		c["checkpoint.resumes"]++
	},
}

// runChainCheckpointed is one chain-churn job: the uninterrupted run
// writing snapshots, a timed read and re-encode of the last snapshot,
// and the run resumed from it.
func runChainCheckpointed(sp *spanCtx, cfg experiments.TopoSimConfig) chainOut {
	var out chainOut
	func() {
		defer sp.span("sim")()
		out.full = experiments.RunTopoSim(cfg)
	}()
	path := checkpoint.PathFor(experiments.Checkpoint.Dir, cfg.Label)
	endRead := sp.span("snapshot-read")
	t0 := time.Now()
	digest, payload, err := checkpoint.ReadFile(path)
	out.readDur = time.Since(t0)
	endRead()
	if err != nil {
		panic(fmt.Sprintf("reading snapshot %s: %v", path, err))
	}
	endEnc := sp.span("snapshot-encode")
	t0 = time.Now()
	enc := checkpoint.Encode(digest, payload)
	out.encodeDur = time.Since(t0)
	endEnc()
	raw, err := os.ReadFile(path)
	if err != nil {
		panic(fmt.Sprintf("reading snapshot %s: %v", path, err))
	}
	if !bytes.Equal(raw, enc) {
		panic(fmt.Sprintf("snapshot %s does not re-encode to its own bytes", filepath.Base(path)))
	}
	out.snapBytes = len(raw)
	rc := cfg
	rc.Resume = experiments.Checkpoint.Dir
	endRes := sp.span("resume")
	t0 = time.Now()
	out.resumed = experiments.RunTopoSim(rc)
	out.resumeDur = time.Since(t0)
	endRes()
	return out
}

// snapshotsPerRun counts the snapshots an uninterrupted chain-churn run
// writes: one at the end of warmup, then one every chainCkptEvery
// simulated seconds strictly inside the measured window.
func snapshotsPerRun() int {
	n := 1
	for t := chainWarmup + chainCkptEvery; t < chainWarmup+chainSeconds; t += chainCkptEvery {
		n++
	}
	return n
}

// chainSharded runs the same chain configs on the sharded engine at two
// shards, without checkpoints.
var chainSharded = &workload{
	name:   "chain-sharded",
	pinKey: "chain",
	plan: func(seed uint64) []job {
		var jobs []job
		for _, c := range chainConfigs(seed) {
			cfg := c.cfg
			cfg.Shards = 2
			serial := c.cfg
			jobs = append(jobs, job{name: c.name, seed: cfg.Seed,
				run: func(sp *spanCtx) any {
					defer sp.span("sim")()
					return experiments.RunTopoSim(cfg)
				},
				twin: func() any { return experiments.RunTopoSim(serial) },
			})
		}
		return jobs
	},
	check: checkChain,
	count: func(res any, c counts) { countChain(res.(experiments.TopoSimResult), c) },
}

func checkChain(res any) error {
	r, ok := res.(experiments.TopoSimResult)
	if out, isOut := res.(chainOut); isOut {
		r, ok = out.full, true
	}
	if !ok {
		return fmt.Errorf("unexpected result type %T", res)
	}
	arrived := int64(0)
	for _, c := range r.Churn {
		arrived += c.Arrivals
	}
	if !(r.TFRC.Throughput > 0) || !(r.TCP.Throughput > 0) || r.FaultDrops == 0 || arrived == 0 {
		return fmt.Errorf("implausible chain result: x_tfrc=%g x_tcp=%g fault_drops=%d arrivals=%d",
			r.TFRC.Throughput, r.TCP.Throughput, r.FaultDrops, arrived)
	}
	return nil
}

func countChain(r experiments.TopoSimResult, c counts) {
	c["des.events"] += float64(r.EventsFired)
	c["fault.drops"] += float64(r.FaultDrops)
	for _, cl := range r.Churn {
		c["arrivals.arrivals"] += float64(cl.Arrivals)
		c["arrivals.constructions"] += float64(cl.Constructions)
		c["arrivals.reclaimed"] += float64(cl.Reclaimed)
		c["arrivals.peak"] = math.Max(c["arrivals.peak"], float64(cl.Peak))
	}
	countObs(r.Obs, c)
}

// countObs folds a run's metrics registry (present on traced passes,
// which enable experiments.Observe.Metrics) into the pass counts.
func countObs(o *experiments.RunObs, c counts) {
	if o == nil || o.Metrics == nil {
		return
	}
	reg := o.Metrics
	for name, key := range map[string]string{
		"des.pending_end":          "des.pending_end",
		"net.forwarded":            "netsim.forwarded",
		"net.queue_drops":          "netsim.queue_drops",
		"net.early_drops":          "netsim.early_drops",
		"net.outstanding_end":      "topology.outstanding_end",
		"tfrc.feedback_received":   "tfrc.feedback_received",
		"tfrc.nofeedback_halvings": "tfrc.nofeedback_halvings",
		"tcp.acks_received":        "tcp.acks_received",
	} {
		c[key] += float64(reg.Counter(name).Value())
	}
}
