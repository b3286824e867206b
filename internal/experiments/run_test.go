package experiments

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/arrivals"
	"repro/internal/fault"
	"repro/internal/runner"
	"repro/internal/tfrc"
)

// ebrcSimConfig is the SimConfig cmd/ebrc-sim builds from its default
// flags (RED queue sized from the path's bandwidth-delay product).
func ebrcSimConfig() SimConfig {
	cfg := SimConfig{
		Capacity: 15e6 / 8, Queue: RED, BaseDelay: 0.01, RevDelay: 0.03,
		NTFRC: 1, NTCP: 1, L: 8, Comprehensive: true,
		TFRCFormula: tfrc.PFTKStandard, Duration: 300, Warmup: 50,
		Seed: 1, RevJitter: 0.2,
	}
	cfg.BDPPackets = cfg.Capacity / 1000 * (2*cfg.BaseDelay + cfg.RevDelay)
	return cfg
}

// failFast runs fn as a runner job and requires it to fail within a
// second with an error containing every string in want.
func failFast(t *testing.T, fn func() any, want ...string) {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := runner.Serial{}.Execute(context.Background(),
			[]runner.Job{{Name: "invalid", Seed: 1, Run: func(context.Context) any { return fn() }}})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("invalid config ran to completion")
		}
		for _, w := range want {
			if !strings.Contains(err.Error(), w) {
				t.Fatalf("error does not name %q:\n%v", w, err)
			}
		}
	case <-time.After(time.Second):
		t.Fatal("invalid config still running after 1s")
	}
}

// Non-finite settings used to hang a run (an infinite duration or
// warmup, an infinite probe rate), finish it with garbage (a NaN
// reverse delay) or be silently ignored (a NaN cross load). Each case
// mirrors one cmd/ebrc-sim invocation and must now fail at once, naming
// the field and its value.
func TestNonFiniteSimConfigFailsFast(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*SimConfig)
		want string
	}{
		{"-seconds inf", func(c *SimConfig) { c.Duration = math.Inf(1) }, "Duration = +Inf"},
		{"-warmup NaN", func(c *SimConfig) { c.Warmup = math.NaN() }, "Warmup = NaN"},
		{"-queue droptail -probe inf", func(c *SimConfig) {
			c.Queue, c.Buffer = DropTail, 100
			c.ProbeRate = math.Inf(1)
		}, "probe rate = +Inf"},
		{"-queue droptail -revdelay NaN", func(c *SimConfig) {
			c.Queue, c.Buffer = DropTail, 100
			c.RevDelay = math.NaN()
		}, "reverse delay = NaN"},
		{"-cross NaN", func(c *SimConfig) { c.CrossLoad = math.NaN() }, "cross load = NaN"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := ebrcSimConfig()
			tc.mut(&cfg)
			failFast(t, func() any { return RunSim(cfg) }, "invalid run config", tc.want)
		})
	}
}

// The multi-hop and routed-reverse front-ends share the same checks.
func TestNonFiniteTopoAndRevConfigsFailFast(t *testing.T) {
	topo := parkingLotBase(Sizing{SimFactor: 0.02})
	topo.HopDelay = math.NaN()
	failFast(t, func() any { return RunTopoSim(topo) }, "link 0 (n0->n1) delay = NaN")

	topo = parkingLotBase(Sizing{SimFactor: 0.02})
	topo.Watch = &RecoveryWatch{Down: 1, Up: math.Inf(1)}
	failFast(t, func() any { return RunTopoSim(topo) }, "Watch.Up = +Inf")

	rev := reverseBase(Sizing{SimFactor: 0.02})
	rev.RevCapacities = []float64{math.Inf(1)}
	failFast(t, func() any { return RunRevSim(rev) }, "link 1 (dst->src) rate = +Inf")

	rev = reverseBase(Sizing{SimFactor: 0.02})
	rev.RevJitter = math.NaN()
	failFast(t, func() any { return RunRevSim(rev) }, "RevJitter = NaN")
}

// digestTestConfig sets every optional part of a TopoSimConfig, so the
// field walk below reaches the fault, watch and churn leaves.
func digestTestConfig() TopoSimConfig {
	cfg := parkingLotBase(Sizing{SimFactor: 0.02})
	cfg.Seed = 5
	cfg.Label = "digest"
	cfg.Faults = &fault.Plan{Seed: 3,
		Events: []fault.Event{{At: 1, Link: 0, Op: fault.SetRate, Rate: 1e5, Policy: fault.Flush}},
		Losses: []fault.GE{{Link: 0, MeanGood: 100, MeanBad: 5, LossGood: 0.01, LossBad: 0.5}}}
	cfg.Watch = &RecoveryWatch{Down: 1, Up: 2, Frac: 0.5, Interval: 0.1}
	cfg.Churn = []arrivals.Spec{{Name: "c", Proto: arrivals.TCP,
		Gap:   arrivals.Gap{Kind: arrivals.Poisson, Rate: 2, Shape: 0.5, Scale: 0.1},
		Size:  arrivals.Size{Kind: arrivals.Fixed, Packets: 4, Shape: 1.5, MinPackets: 2, CapPackets: 9},
		Start: 0.5, Stop: 3, MaxArrivals: 10, Seed: 7, CBRRate: 1}}
	return cfg
}

// digestLeaves lists the index path and name of every leaf field under
// v, descending through pointers, structs and slice elements.
func digestLeaves(v reflect.Value, name string, path []int, out *[][]int, names *[]string) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			digestLeaves(v.Elem(), name, path, out, names)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			digestLeaves(v.Field(i), name+"."+v.Type().Field(i).Name,
				append(path[:len(path):len(path)], i), out, names)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			digestLeaves(v.Index(i), fmt.Sprintf("%s[%d]", name, i),
				append(path[:len(path):len(path)], i), out, names)
		}
	default:
		*out = append(*out, path)
		*names = append(*names, name)
	}
}

// digestLeaf follows an index path from digestLeaves to its leaf.
func digestLeaf(v reflect.Value, path []int) reflect.Value {
	for _, i := range path {
		for v.Kind() == reflect.Pointer {
			v = v.Elem()
		}
		if v.Kind() == reflect.Struct {
			v = v.Field(i)
		} else {
			v = v.Index(i)
		}
	}
	return v
}

// Every leaf field of TopoSimConfig except Resume — the fault plan's
// events and losses, the recovery watch and every churn class field
// included — must move the checkpoint config digest, so a field added
// later without digest coverage fails here instead of letting a
// mismatched resume through.
func TestConfigDigestCoversEveryField(t *testing.T) {
	base := digestTestConfig()
	want := configDigest(&base, 1, 0)
	var paths [][]int
	var names []string
	digestLeaves(reflect.ValueOf(&base), "TopoSimConfig", nil, &paths, &names)
	for _, must := range []string{"TopoSimConfig.Faults.Events[0].Policy",
		"TopoSimConfig.Faults.Losses[0].LossBad", "TopoSimConfig.Watch.Interval",
		"TopoSimConfig.Churn[0].Size.CapPackets"} {
		if !strings.Contains(strings.Join(names, " "), must) {
			t.Fatalf("field walk missed %s", must)
		}
	}
	for i, path := range paths {
		cfg := digestTestConfig()
		f := digestLeaf(reflect.ValueOf(&cfg), path)
		switch f.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			f.SetInt(f.Int() + 1)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			f.SetUint(f.Uint() + 1)
		case reflect.Float32, reflect.Float64:
			f.SetFloat(f.Float() + 0.25)
		case reflect.Bool:
			f.SetBool(!f.Bool())
		case reflect.String:
			f.SetString(f.String() + "x")
		default:
			t.Fatalf("%s: unsupported leaf kind %s", names[i], f.Kind())
		}
		got := configDigest(&cfg, 1, 0)
		if names[i] == "TopoSimConfig.Resume" {
			if got != want {
				t.Errorf("Resume moved the digest; it names where to resume from, not what runs")
			}
			continue
		}
		if got == want {
			t.Errorf("mutating %s left the config digest unchanged", names[i])
		}
	}
	if configDigest(&base, 2, 0) == want || configDigest(&base, 1, 4) == want {
		t.Error("shard or epoch count does not move the config digest")
	}
}
