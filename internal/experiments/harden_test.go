package experiments

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/runner"
)

// A hardened pool (JobDeadline set) must degrade, not crash: with an
// impossible deadline every job is abandoned, yet Scenario.Run still
// folds the (empty) tables and surfaces the failures as a
// *runner.Manifest naming each job's index and seed.
func TestHardenedPoolPartialFold(t *testing.T) {
	sz := Sizing{Events: 500, SimFactor: 0.02, Pairs: []int{1}, PairsCap: 1}
	s, ok := Lookup("multibneck")
	if !ok {
		t.Fatal("multibneck not registered")
	}
	pool := &runner.Pool{Workers: 2, JobDeadline: time.Nanosecond}
	tables, err := s.Run(context.Background(), sz, pool)
	if err == nil {
		t.Fatal("1ns deadline should fail every job")
	}
	var m *runner.Manifest
	if !errors.As(err, &m) {
		t.Fatalf("error is not a manifest: %v", err)
	}
	jobs, _ := s.Plan(sz)
	if m.Total != len(jobs) || len(m.Failed) != len(jobs) {
		t.Fatalf("manifest %d/%d failed, want %d/%d", len(m.Failed), m.Total, len(jobs), len(jobs))
	}
	if m.Failed[0].Seed == 0 || !strings.Contains(m.Failed[0].Err.Error(), "watchdog") {
		t.Fatalf("manifest entry lacks seed or watchdog cause: %+v", m.Failed[0])
	}
	if len(tables) != 1 || len(tables[0].Rows) != 0 {
		t.Fatalf("partial fold should yield the empty table, got %+v", tables)
	}
	// Give the abandoned job goroutines (tiny sims) time to drain before
	// the test binary exits.
	time.Sleep(200 * time.Millisecond)
}

// With a generous deadline the hardened pool is invisible: byte-
// identical tables, no error.
func TestHardenedPoolQuietOnHealthyRun(t *testing.T) {
	sz := Sizing{Events: 500, SimFactor: 0.02, Pairs: []int{1}, PairsCap: 1}
	serial := renderAll(t, "multibneck", sz, runner.Serial{})
	hardened := renderAll(t, "multibneck", sz, &runner.Pool{Workers: 2, JobDeadline: 10 * time.Minute})
	if !bytes.Equal(serial, hardened) {
		t.Fatalf("hardened pool output differs from serial\nserial:\n%s\nhardened:\n%s", serial, hardened)
	}
}

// TestLiveSnapshotWhileRunsBuild polls the live-introspection surface
// from another goroutine while sharded runs build, run and recycle their
// clusters — the access pattern of the expvar endpoint during a long
// -expvar run. Under -race it pins that a cluster appears on the surface
// only once Partition has written its shard table, and leaves it before
// the cluster is reset for reuse.
func TestLiveSnapshotWhileRunsBuild(t *testing.T) {
	old := Observe
	Observe = ObserveOptions{Live: true}
	defer func() { Observe = old }()
	stop := make(chan struct{})
	done := make(chan struct{})
	polls := 0
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			obs.LiveSnapshot()
			polls++
		}
	}()
	cfg := parkingLotBase(Sizing{SimFactor: 0.01, Shards: 2})
	cfg.Hops = 3
	for i := 0; i < 20; i++ {
		cfg.Seed = uint64(i + 1)
		RunTopoSim(cfg)
	}
	close(stop)
	<-done
	if polls == 0 {
		t.Fatal("the poller never sampled the surface")
	}
}
