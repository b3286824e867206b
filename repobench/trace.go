package main

import (
	"encoding/json"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/shard"
)

// span is one timed interval around a call the benchmark makes into the
// program: a pass, its plan, a job, the simulator call inside it, a
// snapshot read, a resume, the fold.
type span struct {
	ID, Parent int
	Name       string
	Start, End time.Duration
}

// spanCtx records spans in memory for the traced passes. A nil *spanCtx
// records nothing, so untraced passes pay one branch per call site.
type spanCtx struct {
	epoch time.Time
	spans []span
	// cur is the open span new spans nest under (0: none).
	cur int
}

func newSpanCtx() *spanCtx { return &spanCtx{epoch: time.Now()} }

// span opens a span nested under the current one and returns the
// function that closes it.
func (s *spanCtx) span(name string) func() {
	if s == nil {
		return func() {}
	}
	id := len(s.spans) + 1
	parent := s.cur
	s.spans = append(s.spans, span{ID: id, Parent: parent, Name: name, Start: time.Since(s.epoch)})
	s.cur = id
	return func() {
		s.spans[id-1].End = time.Since(s.epoch)
		s.cur = parent
	}
}

// passTotals sums span durations by name within each "pass" span, in
// pass order. Parents are recorded before their children, so one
// forward scan resolves every span's pass.
func (s *spanCtx) passTotals() []map[string]time.Duration {
	var out []map[string]time.Duration
	passOf := make([]int, len(s.spans)+1) // span id -> pass index+1
	for _, sp := range s.spans {
		if sp.Name == "pass" {
			out = append(out, map[string]time.Duration{})
			passOf[sp.ID] = len(out)
			continue
		}
		p := passOf[sp.Parent]
		passOf[sp.ID] = p
		if p > 0 {
			out[p-1][sp.Name] += sp.End - sp.Start
		}
	}
	return out
}

// durations returns the lengths of every span with the given name.
func (s *spanCtx) durations(name string) []time.Duration {
	var d []time.Duration
	for _, sp := range s.spans {
		if sp.Name == name {
			d = append(d, sp.End-sp.Start)
		}
	}
	return d
}

// writeChrome writes the spans as Chrome trace_event JSON (complete
// events, microseconds), each carrying its id and parent id.
func (s *spanCtx) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, len(s.spans))
	for i, sp := range s.spans {
		evs[i] = event{Name: sp.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(sp.Start.Nanoseconds()) / 1e3,
			Dur:  float64((sp.End - sp.Start).Nanoseconds()) / 1e3,
			Args: map[string]int{"id": sp.ID, "parent": sp.Parent}}
	}
	b, err := json.Marshal(evs)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// liveSampler polls the sharded clusters' snapshots published through
// experiments.Observe.Live while traced sharded jobs run, keeping the
// latest one. The snapshots are cumulative, so the last sample before a
// job's cluster retires approximates the job's totals (it misses at
// most one polling interval).
type liveSampler struct {
	mu   sync.Mutex
	last []shard.Snapshot
	stop chan struct{}
	done chan struct{}
}

func startLiveSampler(every time.Duration) *liveSampler {
	ls := &liveSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(ls.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-ls.stop:
				return
			case <-t.C:
				for k, v := range obs.LiveSnapshot() {
					if s, ok := v.([]shard.Snapshot); ok && strings.HasPrefix(k, "cluster") {
						ls.mu.Lock()
						ls.last = s
						ls.mu.Unlock()
					}
				}
			}
		}
	}()
	return ls
}

// take returns and clears the latest sample.
func (ls *liveSampler) take() []shard.Snapshot {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	s := ls.last
	ls.last = nil
	return s
}

// close stops the poller and waits for it to exit.
func (ls *liveSampler) close() {
	close(ls.stop)
	<-ls.done
}
