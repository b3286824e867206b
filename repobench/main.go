// Command repobench is the repository's benchmark: it runs one named
// workload of the paper's own computations for a fixed wall-clock
// budget, checks every job's output against the oracle, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics) with
// their units. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// It is a closed loop: one client issues the workload's jobs back to
// back through runner.Serial. Build and run it from the repository root
// with repobench/run.sh; README.md describes the workloads and metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/shard"
)

type options struct {
	workload     string
	seed         uint64
	seconds      float64
	trace        bool
	out          string
	probe        bool
	writeDigests bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var opt options
	var trace int
	fs := flag.NewFlagSet("repobench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&opt.workload, "workload", "", "workload to run: mc-control, dumbbell, chain-churn or chain-sharded")
	fs.Uint64Var(&opt.seed, "seed", defaultSeed, "seed the job list is generated from")
	fs.Float64Var(&opt.seconds, "seconds", 10, "wall-clock seconds to measure")
	fs.IntVar(&trace, "trace", 0, "1: traced run printing the per-layer metrics")
	fs.StringVar(&opt.out, "out", ".bench_build", "directory for checkpoints, traces and profiles")
	fs.BoolVar(&opt.probe, "setup-probe", false, "set up, print the time the first job would start, exit")
	fs.BoolVar(&opt.writeDigests, "write-digests", false, "re-baseline: pin this workload's digests for the default seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opt.trace = trace == 1
	w, err := lookupWorkload(opt.workload)
	if err != nil || (trace != 0 && trace != 1) || opt.seconds <= 0 {
		fmt.Fprintf(stderr, "repobench: bad arguments (workload %q, trace %d, seconds %g)\n", opt.workload, trace, opt.seconds)
		return 2
	}
	if opt.writeDigests && opt.seed != defaultSeed {
		fmt.Fprintf(stderr, "repobench: digests are pinned for seed %d only\n", defaultSeed)
		return 2
	}
	b, err := setup(opt, w)
	if err != nil {
		fmt.Fprintf(stderr, "repobench: %v\n", err)
		return 1
	}
	defer b.cleanup()
	if opt.probe {
		fmt.Fprintln(stdout, time.Now().UnixNano())
		return 0
	}
	if opt.writeDigests {
		return b.rebaseline(stdout, stderr)
	}
	if err := b.measure(stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "repobench: %v\n", err)
		return 1
	}
	return 0
}

// bench is one workload's run state.
type bench struct {
	opt     options
	w       *workload
	jobs    []job
	ckptDir string
	orc     oracle
	// attempted and failed count job executions over the whole run.
	attempted, failed int
}

// setup is everything between process start and the first job: the
// executor width, the leak check, the checkpoint directory and the job
// list generated from the seed. setup_s times exactly this (plus
// runtime and package initialisation) in fresh processes.
func setup(opt options, w *workload) (*bench, error) {
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	experiments.LeakCheck = true
	b := &bench{opt: opt, w: w, orc: oracle{first: map[string]string{}}}
	if w.ckptEvery > 0 {
		root := filepath.Join(opt.out, "ckpt")
		if err := os.MkdirAll(root, 0o755); err != nil {
			return nil, fmt.Errorf("creating checkpoint directory: %w", err)
		}
		dir, err := os.MkdirTemp(root, w.name+"-")
		if err != nil {
			return nil, fmt.Errorf("creating checkpoint directory: %w", err)
		}
		b.ckptDir = dir
		experiments.Checkpoint = experiments.CheckpointOptions{Every: w.ckptEvery, Dir: dir}
	}
	b.jobs = w.plan(opt.seed)
	return b, nil
}

func (b *bench) cleanup() {
	if b.ckptDir != "" {
		os.RemoveAll(b.ckptDir)
	}
}

// passResult is what one pass over the job list measured.
type passResult struct {
	wall           time.Duration
	alloc, mallocs uint64
	gcCycles       uint32
	failed         int
	counts         counts
}

// pass runs the job list once, closed loop, and folds the results
// through the oracle. sp is nil on untraced passes; live is non-nil on
// traced sharded passes.
func (b *bench) pass(sp *spanCtx, live *liveSampler) passResult {
	var m0, m1 runtime.MemStats
	// Two collections empty the sync.Pool arenas (primary and victim
	// caches), so every pass rebuilds them and allocates alike.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	endPass := sp.span("pass")
	endPlan := sp.span("plan")
	jobs := b.w.plan(b.opt.seed)
	endPlan()
	results := make([]any, len(jobs))
	ok := make([]bool, len(jobs))
	c := counts{}
	ctx := context.Background()
	var serial runner.Serial
	for i, j := range jobs {
		endJob := sp.span("job")
		out, err := serial.Execute(ctx, []runner.Job{{Name: j.name, Seed: j.seed,
			Run: func(context.Context) any { return j.run(sp) }}})
		endJob()
		if live != nil {
			countShards(live.take(), c)
		}
		if err != nil {
			b.orc.fail(j.name, err.Error())
			continue
		}
		results[i], ok[i] = out[0], true
	}
	endFold := sp.span("fold")
	failed := 0
	for i, j := range jobs {
		if !ok[i] || !b.orc.checkJob(b.w, j.name, results[i]) {
			failed++
			continue
		}
		b.w.count(results[i], c)
	}
	endFold()
	endPass()
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	b.attempted += len(jobs)
	b.failed += failed
	return passResult{
		wall: wall, alloc: m1.TotalAlloc - m0.TotalAlloc, mallocs: m1.Mallocs - m0.Mallocs,
		gcCycles: m1.NumGC - m0.NumGC, failed: failed, counts: c,
	}
}

// passesFor runs passes until budget has elapsed, and at least three.
func (b *bench) passesFor(budget time.Duration, sp *spanCtx, live *liveSampler) []passResult {
	var out []passResult
	start := time.Now()
	for len(out) < 3 || time.Since(start) < budget {
		out = append(out, b.pass(sp, live))
	}
	return out
}

// verifyTwins reruns every job that has a serial twin and compares.
func (b *bench) verifyTwins() {
	for _, j := range b.jobs {
		if j.twin == nil {
			continue
		}
		b.attempted++
		res, err := runner.Serial{}.Execute(context.Background(), []runner.Job{{Name: j.name, Seed: j.seed,
			Run: func(context.Context) any { return j.twin() }}})
		if err != nil {
			b.orc.fail(j.name, "serial twin: "+err.Error())
			b.failed++
			continue
		}
		if !b.orc.checkTwin(j.name, res[0]) {
			b.failed++
		}
	}
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

func (b *bench) measure(stdout, stderr io.Writer) error {
	var setupS float64
	if !b.opt.trace {
		var err error
		if setupS, err = b.setupSeconds(21); err != nil {
			return err
		}
	}
	if b.opt.seed == defaultSeed {
		p, err := loadPins(pinnedFile)
		if err != nil {
			return err
		}
		b.orc.pinned = p[b.w.pinKey]
		if b.orc.pinned == nil {
			b.orc.pinned = map[string]string{}
		}
	}
	budget := time.Duration(b.opt.seconds * float64(time.Second))
	b.pass(nil, nil) // warm-up: records each job's first digest
	var ms []metric
	var plain []passResult
	if b.opt.trace {
		plain = b.passesFor(budget/2, nil, nil)
		tm, err := b.traced(budget/2, plain)
		if err != nil {
			return err
		}
		ms = tm
	} else {
		plain = b.passesFor(budget, nil, nil)
		ms = endToEnd(plain, setupS)
	}
	b.verifyTwins()
	for _, f := range b.orc.failures {
		fmt.Fprintf(stderr, "repobench: FAIL %s\n", f)
	}
	fmt.Fprintf(stdout, "# repobench workload=%s seed=%d trace=%t passes=%d jobs/pass=%d\n",
		b.w.name, b.opt.seed, b.opt.trace, len(plain), len(b.jobs))
	fmt.Fprint(stdout, "# pass wall_s:")
	for _, p := range plain {
		fmt.Fprintf(stdout, " %.4g", p.wall.Seconds())
	}
	fmt.Fprintln(stdout)
	for _, m := range ms {
		fmt.Fprintf(stdout, "%-28s %.6g %s\n", m.name, m.value, m.unit)
	}
	failFrac := float64(b.failed) / float64(b.attempted)
	fmt.Fprintf(stdout, "%-28s %.6g %s\n", "fail_frac", failFrac, "frac")
	return printResult(stdout, b.failed == 0, b.attempted, b.failed, ms)
}

// endToEnd reduces the untraced passes to the end-to-end metrics.
func endToEnd(ps []passResult, setupS float64) []metric {
	return []metric{
		{"wall_s", medianOf(ps, passWall), "s"},
		{"setup_s", setupS, "s"},
		{"alloc_mb", medianOf(ps, func(_ int, p passResult) float64 { return float64(p.alloc) / 1e6 }), "MB"},
		{"mallocs_k", medianOf(ps, func(_ int, p passResult) float64 { return float64(p.mallocs) / 1e3 }), "count"},
		{"max_rss_mb", maxRSSMB(), "MB"},
	}
}

// medianOf returns the median over passes of f(index, pass).
func medianOf(ps []passResult, f func(i int, p passResult) float64) float64 {
	v := make([]float64, len(ps))
	for i, p := range ps {
		v[i] = f(i, p)
	}
	return median(v)
}

func passWall(_ int, p passResult) float64 { return p.wall.Seconds() }

// setupSeconds starts the benchmark n times in setup-probe mode and
// returns the median time from process start to the first job.
func (b *bench) setupSeconds(n int) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, fmt.Errorf("setup probe: %w", err)
	}
	args := []string{"-setup-probe", "-workload", b.w.name,
		"-seed", strconv.FormatUint(b.opt.seed, 10), "-out", b.opt.out}
	var v []float64
	for i := 0; i < n; i++ {
		var out bytes.Buffer
		cmd := exec.Command(self, args...)
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("setup probe: %w", err)
		}
		ns, err := strconv.ParseInt(strings.TrimSpace(out.String()), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("setup probe output %q: %w", out.String(), err)
		}
		v = append(v, float64(ns-start.UnixNano())/1e9)
	}
	return median(v), nil
}

// traced runs the traced passes — spans, a CPU profile, the metrics
// registries and, on sharded runs, the live shard snapshots — and
// reduces them to the per-layer metrics.
func (b *bench) traced(budget time.Duration, plain []passResult) ([]metric, error) {
	experiments.Observe.Metrics = true
	sharded := b.w == chainSharded
	var live *liveSampler
	if sharded {
		experiments.Observe.Live = true
		live = startLiveSampler(time.Millisecond)
	}
	sp := newSpanCtx()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	ps := b.passesFor(budget, sp, live)
	pprof.StopCPUProfile()
	if live != nil {
		live.close()
	}
	experiments.Observe = experiments.ObserveOptions{}
	attr, err := attribute(prof.Bytes())
	if err != nil {
		return nil, err
	}
	if err := b.writeTrace(sp, prof.Bytes()); err != nil {
		return nil, err
	}
	return perLayer(ps, plain, sp, attr), nil
}

// writeTrace stores the spans and the profile under the output
// directory, named by workload and seed.
func (b *bench) writeTrace(sp *spanCtx, prof []byte) error {
	dir := filepath.Join(b.opt.out, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace directory: %w", err)
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", b.w.name, b.opt.seed))
	if err := sp.writeChrome(base + ".trace.json"); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := os.WriteFile(base+".pprof", prof, 0o644); err != nil {
		return fmt.Errorf("writing profile: %w", err)
	}
	return nil
}

// cpuLayers are the classes whose profile shares are reported as
// cpu.<class>: the repository layers, the overlapping leaf shares, the
// benchmark's own code, collector work and the remaining runtime.
var cpuLayers = []string{
	"runner", "experiments", "des", "netsim", "topology", "shard", "tfrc", "tcp",
	"estimator", "core", "formula", "numerics", "lossmodel", "rng", "arrivals",
	"fault", "checkpoint", "obs", "stats", "memmove", "math", "sched", "gc",
	"bench", "runtime",
}

// countMetrics are the per-pass counters reported as their median over
// the traced passes, with their units.
var countMetrics = []struct{ name, unit string }{
	{"des.events", "count"}, {"des.pending_end", "count"},
	{"netsim.forwarded", "count"}, {"netsim.queue_drops", "count"}, {"netsim.early_drops", "count"},
	{"topology.outstanding_end", "count"},
	{"shard.windows", "count"}, {"shard.handoffs", "count"}, {"shard.cascaded", "count"},
	{"tfrc.feedback_received", "count"}, {"tfrc.nofeedback_halvings", "count"},
	{"tcp.acks_received", "count"}, {"core.loss_events", "count"},
	{"arrivals.arrivals", "count"}, {"arrivals.constructions", "count"},
	{"arrivals.reclaimed", "count"}, {"arrivals.peak", "count"}, {"fault.drops", "count"},
	{"checkpoint.snapshots", "count"}, {"checkpoint.bytes", "bytes"},
}

// perLayer reduces the traced passes to the per-layer metrics.
func perLayer(ps, plain []passResult, sp *spanCtx, attr attribution) []metric {
	med := func(f func(i int, p passResult) float64) float64 { return medianOf(ps, f) }
	totals := sp.passTotals()
	ms := func(i int, names ...string) float64 {
		var d time.Duration
		for _, n := range names {
			d += totals[i][n]
		}
		return float64(d.Nanoseconds()) / 1e6
	}
	// Rates are per second inside the uninterrupted simulator calls, the
	// calls the counts come from.
	perSimSecond := func(key string) float64 {
		return med(func(i int, p passResult) float64 {
			if s := ms(i, "sim") / 1e3; s > 0 {
				return p.counts[key] / s
			}
			return 0
		})
	}
	var jobMs []float64
	for _, d := range sp.durations("job") {
		jobMs = append(jobMs, float64(d.Nanoseconds())/1e6)
	}
	var failed float64
	sum := counts{}
	for _, p := range ps {
		failed += float64(p.failed)
		for k, v := range p.counts {
			sum[k] += v
		}
	}
	ratio := func(num, den string, scale float64) float64 {
		if sum[den] == 0 {
			return 0
		}
		return sum[num] / sum[den] * scale
	}
	out := []metric{
		{"runner.job_ms_p50", quantile(jobMs, 0.5), "ms"},
		{"runner.job_ms_p90", quantile(jobMs, 0.9), "ms"},
		{"runner.jobs_failed", failed, "count"},
		{"experiments.plan_ms", med(func(i int, _ passResult) float64 { return ms(i, "plan") }), "ms"},
		{"experiments.sim_ms", med(func(i int, _ passResult) float64 { return ms(i, "sim", "resume") }), "ms"},
		{"experiments.fold_ms", med(func(i int, _ passResult) float64 { return ms(i, "fold") }), "ms"},
		{"des.events_per_s", perSimSecond("des.events"), "1/s"},
		{"core.loss_events_per_s", perSimSecond("core.loss_events"), "1/s"},
		{"shard.barrier_wait_ms", med(func(_ int, p passResult) float64 { return p.counts["shard.barrier_wait_s"] * 1e3 }), "ms"},
		{"checkpoint.read_mb_s", ratio("checkpoint.bytes", "checkpoint.read_s", 1e-6), "MB/s"},
		{"checkpoint.encode_mb_s", ratio("checkpoint.bytes", "checkpoint.encode_s", 1e-6), "MB/s"},
		{"checkpoint.resume_ms", ratio("checkpoint.resume_s", "checkpoint.resumes", 1e3), "ms"},
		{"obs.trace_overhead_frac", medianOf(ps, passWall)/medianOf(plain, passWall) - 1, "frac"},
		{"gc.cycles", med(func(_ int, p passResult) float64 { return float64(p.gcCycles) }), "count"},
		{"cpu.samples", float64(attr.total), "count"},
	}
	for _, c := range countMetrics {
		out = append(out, metric{c.name, med(func(_ int, p passResult) float64 { return p.counts[c.name] }), c.unit})
	}
	for _, l := range cpuLayers {
		out = append(out, metric{"cpu." + l, attr.share(l), "frac"})
	}
	return out
}

// countShards folds one sharded job's last live snapshot into counts.
func countShards(snaps []shard.Snapshot, c counts) {
	for i, s := range snaps {
		if i == 0 {
			c["shard.windows"] += float64(s.Window)
		}
		c["shard.handoffs"] += float64(s.Handoffs)
		c["shard.cascaded"] += float64(s.Cascaded)
		c["shard.barrier_wait_s"] += s.BarrierWait.Seconds()
	}
}

// rebaseline records the warm pass's digests as this workload's pins.
func (b *bench) rebaseline(stdout, stderr io.Writer) int {
	p, err := loadPins(pinnedFile)
	if errors.Is(err, os.ErrNotExist) {
		p, err = pins{}, nil
	}
	if err != nil {
		fmt.Fprintf(stderr, "repobench: %v\n", err)
		return 1
	}
	b.pass(nil, nil)
	if b.failed > 0 {
		for _, f := range b.orc.failures {
			fmt.Fprintf(stderr, "repobench: FAIL %s\n", f)
		}
		return 1
	}
	p[b.w.pinKey] = b.orc.first
	if err := writePins(pinnedFile, p); err != nil {
		fmt.Fprintf(stderr, "repobench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "pinned %d digests for %s\n", len(b.orc.first), b.w.pinKey)
	return 0
}

// printResult writes the final JSON line.
func printResult(w io.Writer, correct bool, attempted, failed int, ms []metric) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	m := make(map[string]value, len(ms))
	for _, x := range ms {
		m[x.name] = value{x.value, x.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, m})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// maxRSSMB is the process's peak resident set in megabytes.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v by linear interpolation.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
