package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/shard"
)

// TestMain runs the tests from the repository root, where the benchmark
// itself runs, and serves the setup probes the benchmark starts as
// child processes of the test binary.
func TestMain(m *testing.M) {
	for _, a := range os.Args[1:] {
		if a == "-setup-probe" {
			os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
		}
	}
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

type spec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

type result struct {
	Correct           bool
	Attempted, Failed int
	Metrics           map[string]struct {
		Value float64
		Unit  string
	}
}

// runShort runs one workload for the minimum number of passes and
// returns its standard output and the parsed result line.
func runShort(t *testing.T, workload, seed, trace string) (string, result) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run([]string{"-workload", workload, "-seed", seed, "-seconds", "0.001",
		"-trace", trace, "-out", t.TempDir()}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	return out.String(), r
}

// TestEveryMetricPrintedWithUnit checks that a plain run prints every
// end-to-end metric and a traced run every per-layer metric, each by
// name with the unit BENCHMARK.json declares, on the default seed (the
// pinned digests) and on a held-out seed (determinism checks only).
func TestEveryMetricPrintedWithUnit(t *testing.T) {
	s := loadSpec(t)
	for _, tc := range []struct {
		trace, seed string
		want        []struct{ Name, Unit string }
	}{
		{"0", "1", s.EndToEnd},
		{"1", "977", s.PerLayer},
	} {
		out, r := runShort(t, "dumbbell", tc.seed, tc.trace)
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("trace=%s seed=%s: correct=%t attempted=%d failed=%d",
				tc.trace, tc.seed, r.Correct, r.Attempted, r.Failed)
		}
		if len(r.Metrics) != len(tc.want) {
			t.Errorf("trace=%s: %d metrics printed, BENCHMARK.json lists %d", tc.trace, len(r.Metrics), len(tc.want))
		}
		for _, m := range tc.want {
			got, ok := r.Metrics[m.Name]
			if !ok || got.Unit == "" || got.Unit != m.Unit {
				t.Errorf("trace=%s: metric %s printed as %+v, want unit %q", tc.trace, m.Name, got, m.Unit)
			}
			if !strings.Contains(out, "\n"+m.Name+" ") {
				t.Errorf("trace=%s: no human-readable line for %s", tc.trace, m.Name)
			}
		}
		if tc.trace == "0" && !strings.Contains(out, "\nfail_frac ") {
			t.Error("fail_frac is not printed")
		}
	}
}

// TestOracleRejectsCorruptedPin runs the first job of every pinned
// table against its pinned digest, then against a corrupted copy.
func TestOracleRejectsCorruptedPin(t *testing.T) {
	p, err := loadPins(pinnedFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []*workload{mcControl, dumbbell} {
		j := w.plan(defaultSeed)[0]
		res := j.run(nil)
		good := oracle{first: map[string]string{}, pinned: p[w.pinKey]}
		if !good.checkJob(w, j.name, res) {
			t.Fatalf("%s: pinned digest rejected: %v", w.name, good.failures)
		}
		bad := oracle{first: map[string]string{}, pinned: map[string]string{}}
		for k, v := range p[w.pinKey] {
			bad.pinned[k] = v
		}
		d := []byte(bad.pinned[j.name])
		d[0] ^= 1
		bad.pinned[j.name] = string(d)
		if bad.checkJob(w, j.name, res) || len(bad.failures) != 1 {
			t.Errorf("%s: corrupted pin accepted (failures %v)", w.name, bad.failures)
		}
		// A second execution that differs from the first fails too.
		again := oracle{first: map[string]string{j.name: digest(res) + "x"}}
		if again.checkJob(w, j.name, res) {
			t.Errorf("%s: digest mismatch against the first execution accepted", w.name)
		}
	}
}

var burnSink uint64

// burn spins in the benchmark's own code for d.
func burn(d time.Duration) {
	x := uint64(88172645463325252)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 10000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
	}
	burnSink = x
}

// TestBurnerAttributedToNoRepoLayer profiles a CPU burner in the
// benchmark's own package and checks the attribution charges it to
// "bench", never to a repository layer.
func TestBurnerAttributedToNoRepoLayer(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Fatal(err)
	}
	burn(600 * time.Millisecond)
	pprof.StopCPUProfile()
	a, err := attribute(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if a.total < 10 {
		t.Fatalf("only %d samples", a.total)
	}
	for class, n := range a.byClass {
		if class != "bench" && class != "runtime" && class != "gc" && class != "sched" && n > 0 {
			t.Errorf("burner charged %d samples to %q", n, class)
		}
	}
	if s := a.share("bench"); s < 0.8 {
		t.Errorf("bench share %.2f, want >= 0.8", s)
	}
}

func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		frames []string
		layer  string
		extra  string
	}{
		{[]string{"runtime.memmove", "repro/internal/des.(*Scheduler).curInsert", "main.main"}, "des", "memmove"},
		{[]string{"math.archExp", "math.Pow", "repro/internal/formula.PFTKSimplified.Rate", "repro/internal/core.run"}, "formula", "math"},
		{[]string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule"}, "runtime", "sched"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc", ""},
		{[]string{"main.burn", "main.TestBurner"}, "bench", ""},
	} {
		layer, extra := classify(tc.frames)
		if layer != tc.layer || strings.Join(extra, ",") != tc.extra {
			t.Errorf("%v: got %s %v, want %s %s", tc.frames, layer, extra, tc.layer, tc.extra)
		}
	}
}

// TestLiveSamplerKeepsLatestSnapshot publishes a fake cluster on the live
// surface and checks the poller picks it up, hands it over once, and
// stops.
func TestLiveSamplerKeepsLatestSnapshot(t *testing.T) {
	key := obs.PublishLive("cluster", func() any { return []shard.Snapshot{{Window: 7, Handoffs: 3}} })
	ls := startLiveSampler(time.Millisecond)
	var got []shard.Snapshot
	for deadline := time.Now().Add(5 * time.Second); got == nil && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		got = ls.take()
	}
	obs.UnpublishLive(key)
	ls.close()
	if len(got) != 1 || got[0].Window != 7 || got[0].Handoffs != 3 {
		t.Fatalf("sampled %+v", got)
	}
	c := counts{}
	countShards(got, c)
	if c["shard.windows"] != 7 || c["shard.handoffs"] != 3 {
		t.Errorf("counts %v", c)
	}
}
