package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// byteSlack is the absolute bytes/op growth the -benchcmp gate always
// tolerates on top of the relative band. Near-zero baselines (e.g. a
// warmed-up scheduler bench whose one-time bucket growth amortizes to a
// few bytes/op) scale inversely with the machine-dependent iteration
// count testing.Benchmark picks, so a purely relative band would flag
// noise; any real leak grows past this floor immediately.
const byteSlack = 512

// runBenchCmp compares a new BENCH_*.json report against a baseline and
// returns 1 when a tracked benchmark regressed: events/sec fell by more
// than tol (fraction), allocs/op grew by more than atol (fraction), or
// bytes/op grew beyond both btol (fraction) and the absolute byteSlack
// floor. The allocation gates are narrow bands rather than zero
// tolerance because the cluster pooling makes a whole-simulation
// benchmark's allocs/op weakly machine-dependent: per-op cost is
// per-run residual plus amortized pool build-up divided by the
// iteration count testing.Benchmark picks, and a GC can drain the
// sync.Pool mid-run. A zero-allocs baseline stays zero-tolerance —
// `0*(1+atol)` is 0 — so the hot-path zero-allocation guarantee is
// still machine-independent and hard. Benchmarks are matched by name;
// entries present in only one report are listed but never gate, so
// adding a benchmark does not break the comparison against older
// baselines. This is the gate the CI bench job runs — the perf
// trajectory is compared, not just recorded.
func runBenchCmp(oldPath, newPath string, tol, atol, btol float64, stdout, stderr io.Writer) int {
	if tol <= 0 || tol >= 1 {
		fmt.Fprintf(stderr, "ebrc: -benchtol must be in (0,1), got %v\n", tol)
		return 2
	}
	if atol < 0 || atol >= 1 {
		fmt.Fprintf(stderr, "ebrc: -benchalloctol must be in [0,1), got %v\n", atol)
		return 2
	}
	if btol < 0 || btol >= 1 {
		fmt.Fprintf(stderr, "ebrc: -benchbytetol must be in [0,1), got %v\n", btol)
		return 2
	}
	oldRep, err := loadBenchReport(oldPath)
	if err != nil {
		fmt.Fprintf(stderr, "ebrc: %v\n", err)
		return 1
	}
	newRep, err := loadBenchReport(newPath)
	if err != nil {
		fmt.Fprintf(stderr, "ebrc: %v\n", err)
		return 1
	}
	if os, ns := goSeries(oldRep.GoVersion), goSeries(newRep.GoVersion); os != ns {
		// A toolchain jump moves every number (runtime, GC, codegen), so
		// flag it — but only as a warning: the tolerance bands still
		// gate, and failing here would block every routine Go upgrade.
		fmt.Fprintf(stderr, "ebrc: warning: comparing across Go series (%s vs %s) — deltas include toolchain effects\n",
			oldRep.GoVersion, newRep.GoVersion)
	}
	oldBy := make(map[string]benchEntry, len(oldRep.Benchmarks))
	for _, e := range oldRep.Benchmarks {
		oldBy[e.Name] = e
	}

	failures := 0
	compared := 0
	var newOnly []string
	for _, n := range newRep.Benchmarks {
		o, ok := oldBy[n.Name]
		if !ok {
			newOnly = append(newOnly, n.Name)
			fmt.Fprintf(stdout, "%-24s new benchmark, not gated (%.0f events/sec, %d allocs/op)\n",
				n.Name, n.EventsPerSec, n.AllocsPerOp)
			continue
		}
		delete(oldBy, n.Name)
		compared++
		var reasons []string
		if o.EventsPerSec > 0 && n.EventsPerSec < o.EventsPerSec*(1-tol) {
			reasons = append(reasons, fmt.Sprintf("events/sec fell >%d%%", int(tol*100)))
		}
		if float64(n.AllocsPerOp) > float64(o.AllocsPerOp)*(1+atol) {
			reasons = append(reasons, fmt.Sprintf("allocs/op rose %d -> %d", o.AllocsPerOp, n.AllocsPerOp))
		}
		if allowed := math.Max(float64(o.BytesPerOp)*(1+btol),
			float64(o.BytesPerOp+byteSlack)); float64(n.BytesPerOp) > allowed {
			reasons = append(reasons, fmt.Sprintf("bytes/op rose >%d%% (%d -> %d)",
				int(btol*100), o.BytesPerOp, n.BytesPerOp))
		}
		status := "ok"
		if len(reasons) > 0 {
			status = "FAIL: " + strings.Join(reasons, "; ")
			failures++
		}
		ratio := 0.0
		if o.EventsPerSec > 0 {
			ratio = n.EventsPerSec / o.EventsPerSec
		}
		fmt.Fprintf(stdout, "%-24s %12.0f -> %12.0f events/sec (%.2fx)  %6d -> %6d allocs/op  %s\n",
			n.Name, o.EventsPerSec, n.EventsPerSec, ratio, o.AllocsPerOp, n.AllocsPerOp, status)
	}
	missing := make([]string, 0, len(oldBy))
	for name := range oldBy {
		missing = append(missing, name)
	}
	sort.Strings(missing)
	for _, name := range missing {
		fmt.Fprintf(stdout, "%-24s missing from %s, not gated\n", name, newPath)
	}
	// Bodies present only in the new report never gate (an older baseline
	// cannot fail a freshly-added benchmark) but they must not vanish
	// into the per-line noise either: list them explicitly at the end, so
	// a reviewer sees exactly which measurements lack a baseline until
	// the next BENCH_<n>.json is recorded.
	if len(newOnly) > 0 {
		sort.Strings(newOnly)
		fmt.Fprintf(stdout, "%d new benchmark(s) without a baseline in %s (recorded, not gated): %s\n",
			len(newOnly), oldPath, strings.Join(newOnly, ", "))
	}
	if compared == 0 {
		fmt.Fprintf(stderr, "ebrc: no benchmarks in common between %s and %s\n", oldPath, newPath)
		return 1
	}
	if failures > 0 {
		fmt.Fprintf(stderr, "ebrc: %d benchmark regression(s) vs %s\n", failures, oldPath)
		return 1
	}
	fmt.Fprintf(stdout, "no regressions: %d benchmarks within %.0f%% of %s\n",
		compared, tol*100, oldPath)
	return 0
}

// goSeries reduces a runtime.Version() string to its minor series
// ("go1.24.0" -> "go1.24") so patch releases compare silently while
// series jumps trigger the toolchain warning. Unparseable strings
// (devel builds) are returned whole and so always warn against a
// release series.
func goSeries(v string) string {
	first := strings.Index(v, ".")
	if first < 0 {
		return v
	}
	if second := strings.Index(v[first+1:], "."); second >= 0 {
		return v[:first+1+second]
	}
	return v
}

func loadBenchReport(path string) (benchReport, error) {
	var rep benchReport
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Benchmarks) == 0 {
		return rep, fmt.Errorf("%s: no benchmarks in report", path)
	}
	return rep, nil
}
