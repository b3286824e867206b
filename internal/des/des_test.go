package des

import (
	"math"
	"math/bits"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestOrdering(t *testing.T) {
	var s Scheduler
	var got []int
	s.At(3, func() { got = append(got, 3) })
	s.At(1, func() { got = append(got, 1) })
	s.At(2, func() { got = append(got, 2) })
	s.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v", got)
	}
	if s.Now() != 3 {
		t.Fatalf("clock = %v", s.Now())
	}
	if s.Fired() != 3 {
		t.Fatalf("fired = %d", s.Fired())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	var s Scheduler
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events out of order: %v", got)
		}
	}
}

func TestAfter(t *testing.T) {
	var s Scheduler
	fired := 0.0
	s.After(2, func() {
		fired = s.Now()
		s.After(3, func() { fired = s.Now() })
	})
	s.Run()
	if fired != 5 {
		t.Fatalf("nested After fired at %v, want 5", fired)
	}
}

func TestCancel(t *testing.T) {
	var s Scheduler
	ran := false
	tm := s.At(1, func() { ran = true })
	if !tm.Active() {
		t.Fatal("timer should be active")
	}
	tm.Cancel()
	if tm.Active() {
		t.Fatal("cancelled timer should be inactive")
	}
	s.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
	// Double cancel and zero-Timer cancel are no-ops.
	tm.Cancel()
	var zero Timer
	zero.Cancel()
	if zero.Active() {
		t.Fatal("zero timer active")
	}
}

func TestCancelDuringRun(t *testing.T) {
	var s Scheduler
	ran := false
	var tm Timer
	s.At(1, func() { tm.Cancel() })
	tm = s.At(2, func() { ran = true })
	s.Run()
	if ran {
		t.Fatal("event cancelled mid-run still ran")
	}
}

func TestRunUntil(t *testing.T) {
	var s Scheduler
	count := 0
	// Self-sustaining chain: one event per second forever.
	var tick func()
	tick = func() {
		count++
		s.After(1, tick)
	}
	s.After(1, tick)
	s.RunUntil(10.5)
	if count != 10 {
		t.Fatalf("ticks = %d, want 10", count)
	}
	if s.Now() != 10.5 {
		t.Fatalf("clock = %v, want 10.5", s.Now())
	}
	s.RunUntil(12)
	if count != 12 {
		t.Fatalf("ticks after resume = %d, want 12 (ticks at 11 and 12)", count)
	}
}

func TestRunUntilExactBoundary(t *testing.T) {
	var s Scheduler
	ran := false
	s.At(5, func() { ran = true })
	s.RunUntil(5)
	if !ran {
		t.Fatal("event exactly at deadline should fire")
	}
}

func TestPendingCountsLiveOnly(t *testing.T) {
	var s Scheduler
	t1 := s.At(1, func() {})
	s.At(2, func() {})
	t3 := s.At(3, func() {})
	if s.Pending() != 3 {
		t.Fatalf("pending = %d", s.Pending())
	}
	t1.Cancel()
	t3.Cancel()
	if s.Pending() != 1 {
		t.Fatalf("pending after two cancels = %d, want 1 (live only)", s.Pending())
	}
	s.Run()
	if s.Pending() != 0 {
		t.Fatalf("pending after run = %d", s.Pending())
	}
}

// bucketLen walks bucket j of level l in the node slab and returns its
// length.
func bucketLen(s *Scheduler, l, j int) int {
	n := 0
	for i := s.levels[l].head[j]; i != 0; i = s.nodes[i-1].next {
		n++
	}
	return n
}

// storedEntries counts the entries physically buffered anywhere in the
// scheduler: the working set, every wheel bucket, and the overflow
// level.
func storedEntries(s *Scheduler) int {
	n := len(s.cur) - s.curIdx + len(s.overflow)
	for l := range s.levels {
		for j := range s.levels[l].head {
			n += bucketLen(s, l, j)
		}
	}
	return n
}

func TestCompactionBoundsHeap(t *testing.T) {
	var s Scheduler
	// Cancel-heavy workload: schedule far-future timers and immediately
	// cancel them, as a retransmit timer re-armed per ACK does. Without
	// compaction the wheel would grow by one dead entry per iteration.
	for i := 0; i < 100000; i++ {
		tm := s.At(1e9+float64(i), func() {})
		tm.Cancel()
	}
	if got := storedEntries(&s); got > 200 {
		t.Fatalf("wheel holds %d entries after cancel storm, want compacted (<= 200)", got)
	}
	if s.Pending() != 0 {
		t.Fatalf("pending = %d, want 0", s.Pending())
	}
	// Live events must survive compaction and fire in order.
	var got []float64
	for i := 10; i > 0; i-- {
		s.At(float64(i), func() { got = append(got, s.Now()) })
	}
	for i := 0; i < 100000; i++ {
		tm := s.At(1e9+float64(i), func() {})
		tm.Cancel()
	}
	s.RunUntil(20)
	if len(got) != 10 {
		t.Fatalf("fired %d live events, want 10", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("out of order after compaction: %v", got)
		}
	}
}

// TestTimerGenerationReuse checks that a stale handle to a recycled slot
// can neither cancel nor observe the slot's new occupant.
func TestTimerGenerationReuse(t *testing.T) {
	var s Scheduler
	old := s.At(1, func() {})
	old.Cancel() // slot returns to the freelist
	ran := false
	fresh := s.At(2, func() { ran = true }) // recycles the slot
	if old.slot != fresh.slot {
		t.Fatalf("freelist did not recycle the slot (%d vs %d)", old.slot, fresh.slot)
	}
	if old.Active() {
		t.Fatal("stale handle reports active")
	}
	old.Cancel() // must not touch the recycled slot
	if !fresh.Active() {
		t.Fatal("stale Cancel killed the new timer")
	}
	s.Run()
	if !ran {
		t.Fatal("recycled-slot event did not run")
	}
	// After firing, both handles are dead and further cancels are no-ops.
	if fresh.Active() {
		t.Fatal("fired timer reports active")
	}
	fresh.Cancel()
}

// TestFIFOUnderFreelistReuse checks the same-instant FIFO tie-break when
// the events' slots come from the freelist in scrambled order.
func TestFIFOUnderFreelistReuse(t *testing.T) {
	var s Scheduler
	// Build a scrambled freelist: schedule a batch, cancel out of order.
	var tms []Timer
	for i := 0; i < 16; i++ {
		tms = append(tms, s.At(100, func() {}))
	}
	for _, i := range []int{7, 0, 15, 3, 12, 1, 9, 5, 14, 2, 11, 4, 13, 6, 10, 8} {
		tms[i].Cancel()
	}
	var got []int
	for i := 0; i < 16; i++ {
		i := i
		s.At(50, func() { got = append(got, i) })
	}
	s.RunUntil(60)
	if len(got) != 16 {
		t.Fatalf("fired %d events, want 16", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events out of scheduling order under slot reuse: %v", got)
		}
	}
}

// refEvent mirrors one scheduled event in the naive reference model.
// key is the causal origin; events scheduled with At may leave it zero,
// since their seq order already agrees with their origin order.
type refEvent struct {
	at   float64
	key  float64
	seq  uint64
	id   int
	dead bool
}

// TestQuickVsSortedSliceReference drives random schedule/cancel/
// reschedule/step traffic through the scheduler and a naive
// sorted-slice reference in lockstep, comparing the full firing order.
func TestQuickVsSortedSliceReference(t *testing.T) {
	r := rng.New(2024)
	for trial := 0; trial < 200; trial++ {
		var s Scheduler
		var ref []refEvent
		timers := map[int]Timer{}
		var gotIDs, wantIDs []int
		nextID := 0
		steps := int(r.Uint64()%200) + 10
		for op := 0; op < steps; op++ {
			switch {
			case r.Bernoulli(0.55): // schedule
				id := nextID
				nextID++
				at := s.Now() + r.Float64()*10
				timers[id] = s.At(at, func() { gotIDs = append(gotIDs, id) })
				ref = append(ref, refEvent{at: at, seq: uint64(op), id: id})
			case r.Bernoulli(0.5): // cancel a random live timer
				for id, tm := range timers {
					tm.Cancel()
					delete(timers, id)
					for i := range ref {
						if ref[i].id == id {
							ref[i].dead = true
						}
					}
					break
				}
			default: // step
				s.Step()
				stepRef(&ref, &wantIDs)
			}
		}
		for s.Step() {
			stepRef(&ref, &wantIDs)
		}
		if len(gotIDs) != len(wantIDs) {
			t.Fatalf("trial %d: fired %d events, reference fired %d", trial, len(gotIDs), len(wantIDs))
		}
		for i := range gotIDs {
			if gotIDs[i] != wantIDs[i] {
				t.Fatalf("trial %d: firing order diverges at %d: got %v want %v", trial, i, gotIDs, wantIDs)
			}
		}
	}
}

// stepRef pops the earliest live event of the reference model.
func stepRef(ref *[]refEvent, fired *[]int) {
	events := *ref
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].at != events[j].at {
			return events[i].at < events[j].at
		}
		return events[i].seq < events[j].seq
	})
	for i, e := range events {
		if e.dead {
			continue
		}
		*fired = append(*fired, e.id)
		*ref = append(events[:i], events[i+1:]...)
		return
	}
	// Drop any fully dead prefix.
	*ref = events[:0]
}

func TestPanics(t *testing.T) {
	var s Scheduler
	s.At(5, func() {})
	s.Step()
	cases := []func(){
		func() { s.At(1, func() {}) }, // past
		func() { s.After(-1, func() {}) },
		func() { s.At(10, nil) },
		func() { s.RunUntil(1) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

// TestNaNTimesPanic checks that a NaN time fails every past-time and
// origin guard instead of slipping through comparisons that NaN makes
// false.
func TestNaNTimesPanic(t *testing.T) {
	nan := math.NaN()
	fn := func() {}
	cases := []struct {
		name string
		call func(s *Scheduler)
	}{
		{"At", func(s *Scheduler) { s.At(nan, fn) }},
		{"After", func(s *Scheduler) { s.After(nan, fn) }},
		{"AtOrigin/origin", func(s *Scheduler) { s.AtOrigin(1, nan, fn) }},
		{"AtOrigin/at", func(s *Scheduler) { s.AtOrigin(nan, 0, fn) }},
		{"RunUntil", func(s *Scheduler) { s.RunUntil(nan) }},
		{"RunBefore", func(s *Scheduler) { s.RunBefore(nan) }},
		{"RestoreClock", func(s *Scheduler) { s.Reset(); s.RestoreClock(nan, 0, 0, 0) }},
		{"RestoreAt/at", func(s *Scheduler) { s.RestoreAt(nan, 0, 0, fn) }},
		{"RestoreAt/key", func(s *Scheduler) { s.RestoreAt(1, nan, 0, fn) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var s Scheduler
			ran := false
			s.At(0.5, func() { ran = true })
			s.At(2, fn) // gives RestoreAt a seq to predate
			defer func() {
				if recover() == nil {
					t.Fatal("NaN accepted")
				}
				if ran || math.IsNaN(s.Now()) {
					t.Fatalf("guard ran too late: fired=%v now=%v", ran, s.Now())
				}
			}()
			c.call(&s)
		})
	}
}

// TestStaggeredStartsWorkingSet pins the cure for the cursor runaway: one
// event at t = 1 s followed by 10000 events at staggered earlier
// instants, scheduled in scrambled order (a simulation's setup drawing
// flow start offsets). The later events must wait in the wheel, so the
// unconsumed working set never holds more than the events of one tick,
// and the firing order matches the reference heap.
func TestStaggeredStartsWorkingSet(t *testing.T) {
	const n = 10000
	var s Scheduler
	ref := &refHeap{}
	var got []int
	high := 0
	watch := func() {
		if w := len(s.cur) - s.curIdx; w > high {
			high = w
		}
	}
	perTick := map[uint64]int{}
	maxPerTick := 0
	schedule := func(id int, at float64) {
		s.At(at, func() { got = append(got, id); watch() })
		ref.push(refEvent{at: at, seq: uint64(id), id: id})
		perTick[tickOf(at)]++
		maxPerTick = max(maxPerTick, perTick[tickOf(at)])
		watch()
	}
	schedule(0, 1)
	for i, k := range scrambled(n) {
		schedule(i+1, float64(k+1)/(n+1))
	}
	s.Run()
	if high > maxPerTick {
		t.Fatalf("working set reached %d entries, want <= %d (the most events sharing one tick)",
			high, maxPerTick)
	}
	if len(got) != n+1 {
		t.Fatalf("fired %d events, want %d", len(got), n+1)
	}
	for i, id := range got {
		if want := ref.pop().id; id != want {
			t.Fatalf("firing order diverges from the reference heap at %d: got id %d, want %d", i, id, want)
		}
	}
}

// Property: events always fire in non-decreasing time order, regardless
// of insertion order.
func TestQuickTimeOrdered(t *testing.T) {
	r := rng.New(99)
	f := func(n uint8) bool {
		var s Scheduler
		var times []float64
		for i := 0; i < int(n%64)+2; i++ {
			at := r.Float64() * 100
			s.At(at, func() { times = append(times, s.Now()) })
		}
		s.Run()
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the clock never goes backwards across Step calls.
func TestQuickClockMonotone(t *testing.T) {
	r := rng.New(100)
	f := func(n uint8) bool {
		var s Scheduler
		for i := 0; i < int(n%32)+2; i++ {
			s.At(r.Float64()*50, func() {
				// Schedule more work from inside events.
				if s.Pending() < 100 {
					s.After(r.Float64(), func() {})
				}
			})
		}
		prev := 0.0
		for s.Step() {
			if s.Now() < prev {
				return false
			}
			prev = s.Now()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestSteadyStateZeroAlloc pins the scheduler's allocation contract: every
// hot-path cycle (schedulerPatterns: schedule/fire, timer cancel/re-arm,
// 1K and 8K pending events, staggered starts) with a preallocated
// callback performs no per-event allocations once the wheel and
// freelist have warmed up.
func TestSteadyStateZeroAlloc(t *testing.T) {
	for _, p := range schedulerPatterns {
		t.Run(p.name, func(t *testing.T) {
			var s Scheduler
			work := p.setup(&s)
			for i := 0; i < 1024; i++ { // warm up
				work()
			}
			if avg := testing.AllocsPerRun(1000, work); avg != 0 {
				t.Fatalf("steady-state allocs per event cycle = %v, want 0", avg)
			}
		})
	}
}

// TestColdSchedulerAllocs runs the DeepQueue8K pattern on a fresh
// scheduler, with no Reset reuse: every table grows from empty to its
// peak, so the count is the cold-start cost. Growing a handful of
// slices by doubling to the ~8K pending events costs O(log pending)
// allocations (46 measured with Go 1.24 on amd64; the bound is 4 per
// doubling); per-bucket storage would pay that per occupied bucket
// (1237).
func TestColdSchedulerAllocs(t *testing.T) {
	var setup func(*Scheduler) func()
	for _, p := range schedulerPatterns {
		if p.name == "DeepQueue8K" {
			setup = p.setup
		}
	}
	allocs := testing.AllocsPerRun(4, func() {
		s := new(Scheduler)
		work := setup(s)
		for i := 0; i < 8192; i++ {
			work()
		}
	})
	if limit := float64(4 * bits.Len(8192)); allocs > limit {
		t.Fatalf("cold DeepQueue8K run: %v allocs, want <= %v (O(log pending))", allocs, limit)
	}
	t.Logf("cold DeepQueue8K run: %v allocs", allocs)
}

// refHeap is a naive binary heap ordered by (at, key, seq) — the
// reference priority queue the wheel must match event for event.
type refHeap struct {
	es []refEvent
}

func (h *refHeap) push(e refEvent) {
	h.es = append(h.es, e)
	i := len(h.es) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !refBefore(h.es[i], h.es[p]) {
			break
		}
		h.es[i], h.es[p] = h.es[p], h.es[i]
		i = p
	}
}

func (h *refHeap) pop() refEvent {
	top := h.es[0]
	n := len(h.es) - 1
	h.es[0] = h.es[n]
	h.es = h.es[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && refBefore(h.es[c+1], h.es[c]) {
			c++
		}
		if !refBefore(h.es[c], h.es[i]) {
			break
		}
		h.es[i], h.es[c] = h.es[c], h.es[i]
		i = c
	}
	return top
}

func refBefore(a, b refEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

// popLive pops the earliest live reference event, if any.
func (h *refHeap) popLive(dead map[int]bool) (refEvent, bool) {
	for len(h.es) > 0 {
		e := h.pop()
		if !dead[e.id] {
			return e, true
		}
	}
	return refEvent{}, false
}

// boundaryDelay draws delays biased toward the wheel's sore spots: the
// tick quantum, the exact spans of each cascade level, the far-future
// horizon, and zero (same-instant FIFO ties).
func boundaryDelay(r *rng.RNG) float64 {
	const tick = 1.0 / ticksPerSecond
	switch r.Uint64() % 8 {
	case 0: // inside the current tick
		return r.Float64() * tick / 2
	case 1: // exactly on a tick edge
		return float64(r.Uint64()%512) * tick
	case 2, 3: // straddling a cascade-level span: 256^L ticks ± 1 tick
		lvl := 1 + int(r.Uint64()%3)
		span := float64(uint64(1)<<(uint(lvl)*levelBits)) * tick
		return span + float64(int(r.Uint64()%3)-1)*tick
	case 4: // beyond the wheel horizon (overflow level)
		span := float64(uint64(1)<<(numLevels*levelBits)) * tick
		return span * (1 + r.Float64()*2)
	case 5: // same instant as a pending event (seq tie-break)
		return 0
	default:
		return r.Float64() * 3
	}
}

// TestWheelVsReferenceHeapChurn drives random schedule/cancel/
// reschedule/step churn — with delays concentrated on tick edges,
// cascade-level spans, the overflow horizon and same-timestamp ties —
// through the wheel and a reference binary heap in lockstep, comparing
// the full firing order.
func TestWheelVsReferenceHeapChurn(t *testing.T) {
	r := rng.New(777)
	for trial := 0; trial < 150; trial++ {
		var s Scheduler
		ref := &refHeap{}
		dead := map[int]bool{}
		timers := map[int]Timer{}
		var gotIDs, wantIDs []int
		nextID := 0
		schedule := func(delay float64) {
			id := nextID
			nextID++
			at := s.Now() + delay
			timers[id] = s.At(at, func() { gotIDs = append(gotIDs, id) })
			ref.push(refEvent{at: at, seq: uint64(id), id: id})
		}
		stepBoth := func() {
			fired := s.Step()
			e, ok := ref.popLive(dead)
			if fired != ok {
				t.Fatalf("trial %d: wheel fired=%v, reference fired=%v", trial, fired, ok)
			}
			if ok {
				wantIDs = append(wantIDs, e.id)
			}
		}
		ops := int(r.Uint64()%300) + 20
		for op := 0; op < ops; op++ {
			switch {
			case r.Bernoulli(0.45):
				schedule(boundaryDelay(r))
			case r.Bernoulli(0.3): // cancel or reschedule a live timer
				for id, tm := range timers {
					tm.Cancel()
					delete(timers, id)
					dead[id] = true
					if r.Bernoulli(0.5) {
						schedule(boundaryDelay(r))
					}
					break
				}
			default:
				stepBoth()
			}
		}
		for s.Pending() > 0 {
			stepBoth()
		}
		if _, ok := ref.popLive(dead); ok {
			t.Fatalf("trial %d: reference still has live events after wheel drained", trial)
		}
		if len(gotIDs) != len(wantIDs) {
			t.Fatalf("trial %d: fired %d events, reference fired %d", trial, len(gotIDs), len(wantIDs))
		}
		for i := range gotIDs {
			if gotIDs[i] != wantIDs[i] {
				t.Fatalf("trial %d: firing order diverges at %d: got %v want %v",
					trial, i, gotIDs, wantIDs)
			}
		}
	}
}

// TestOverflowCascade pins the far-future path explicitly: events beyond
// the wheel horizon must fire, in order, interleaved correctly with
// near events scheduled later.
func TestOverflowCascade(t *testing.T) {
	var s Scheduler
	horizon := float64(uint64(1)<<(numLevels*levelBits)) / ticksPerSecond
	var got []float64
	rec := func() { got = append(got, s.Now()) }
	far1 := horizon * 1.5
	far2 := horizon * 3
	s.At(1, rec) // anchor the cursor so the far events overflow
	s.At(far2, rec)
	s.At(far1, rec)
	s.At(far1, rec) // same-instant tie in the overflow level
	if len(s.overflow) != 3 {
		t.Fatalf("overflow holds %d entries, want 3", len(s.overflow))
	}
	s.Run()
	want := []float64{1, far1, far1, far2}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire times = %v, want %v", got, want)
		}
	}
	if len(s.overflow) != 0 {
		t.Fatalf("overflow not drained: %d entries", len(s.overflow))
	}
}

// TestReset checks that a reused scheduler is indistinguishable from a
// fresh one: clock, counters and pending set cleared, stale handles
// inert, and a replayed workload firing identically.
func TestReset(t *testing.T) {
	replay := func(s *Scheduler) []int {
		var got []int
		for i := 0; i < 8; i++ {
			i := i
			s.At(float64(8-i), func() { got = append(got, i) })
		}
		tm := s.At(0.5, func() { got = append(got, 99) })
		tm.Cancel()
		s.RunUntil(10)
		return got
	}

	var reused Scheduler
	stale := reused.At(3, func() { panic("must not fire after reset") })
	reused.At(100, func() {})
	reused.RunUntil(1) // advance the clock and cursor mid-queue
	reused.Reset()
	if reused.Now() != 0 || reused.Fired() != 0 || reused.Pending() != 0 {
		t.Fatalf("after Reset: now=%v fired=%d pending=%d, want zeros",
			reused.Now(), reused.Fired(), reused.Pending())
	}
	if storedEntries(&reused) != 0 {
		t.Fatalf("after Reset: %d entries still buffered", storedEntries(&reused))
	}
	if stale.Active() {
		t.Fatal("stale handle active after Reset")
	}
	stale.Cancel() // must not disturb the reused scheduler

	var fresh Scheduler
	want := replay(&fresh)
	got := replay(&reused)
	if len(got) != len(want) {
		t.Fatalf("reused scheduler fired %d events, fresh fired %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reused scheduler order %v, fresh %v", got, want)
		}
	}
	if fresh.Fired() != reused.Fired() || fresh.Now() != reused.Now() {
		t.Fatalf("reused scheduler state (fired=%d now=%v) differs from fresh (fired=%d now=%v)",
			reused.Fired(), reused.Now(), fresh.Fired(), fresh.Now())
	}
}

// TestResetOverflowEdge pins Reset against the far-future path: after
// scheduling events past the wheel horizon (populating the overflow
// level and high wheel levels) and part-way consuming the queue, Reset
// must leave no occupancy bit set, no buffered entry anywhere, and a
// freelist covering the whole slot table — cross-checked against a
// fresh scheduler replaying the same workload.
func TestResetOverflowEdge(t *testing.T) {
	horizon := float64(uint64(1)<<(numLevels*levelBits)) / ticksPerSecond
	var s Scheduler
	fn := func() {}
	s.At(1, fn) // anchor the cursor near zero so far events overflow
	for i := 0; i < 100; i++ {
		s.At(horizon*(1.5+float64(i)), fn) // overflow level
		s.At(horizon*0.9-float64(i), fn)   // top wheel level
		s.At(float64(i)+2, fn)             // low levels
	}
	if len(s.overflow) == 0 {
		t.Fatal("workload did not reach the overflow level")
	}
	s.RunUntil(50) // consume part of the queue, cursor mid-wheel

	s.Reset()
	if len(s.overflow) != 0 {
		t.Fatalf("overflow holds %d entries after Reset", len(s.overflow))
	}
	for l := range s.levels {
		lv := &s.levels[l]
		for w, word := range lv.bitmap {
			if word != 0 {
				t.Fatalf("level %d bitmap word %d = %#x after Reset", l, w, word)
			}
		}
		for j := range lv.head {
			if n := bucketLen(&s, l, j); n != 0 || lv.tail[j] != 0 {
				t.Fatalf("level %d bucket %d holds %d entries (tail %d) after Reset", l, j, n, lv.tail[j])
			}
		}
	}
	if storedEntries(&s) != 0 {
		t.Fatalf("%d entries still buffered after Reset", storedEntries(&s))
	}
	if len(s.free) != len(s.slots) {
		t.Fatalf("freelist covers %d of %d slots after Reset", len(s.free), len(s.slots))
	}
	if s.live != 0 || s.dead != 0 || s.curTick != 0 {
		t.Fatalf("live=%d dead=%d curTick=%d after Reset, want zeros", s.live, s.dead, s.curTick)
	}

	// A replayed far-future workload must fire identically to a fresh
	// scheduler's.
	replay := func(s *Scheduler) []float64 {
		var got []float64
		rec := func() { got = append(got, s.Now()) }
		s.At(1, rec)
		s.At(horizon*2, rec)
		s.At(horizon*1.25, rec)
		s.At(3, rec)
		s.Run()
		return got
	}
	var fresh Scheduler
	want := replay(&fresh)
	got := replay(&s)
	if len(got) != len(want) {
		t.Fatalf("reused fired %d events, fresh %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reused fire times %v, fresh %v", got, want)
		}
	}
}

// TestRunBefore pins the half-open window semantics: events strictly
// before the limit fire, an event exactly at the limit does not, and
// the clock lands exactly on the limit so a follow-up RunUntil of the
// same instant fires the boundary event — together they tile a phase
// into windows without double-firing or skipping.
func TestRunBefore(t *testing.T) {
	var s Scheduler
	var got []float64
	rec := func() { got = append(got, s.Now()) }
	s.At(1, rec)
	s.At(2, rec)
	s.At(3, rec)
	s.RunBefore(2)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("RunBefore(2) fired %v, want [1]", got)
	}
	if s.Now() != 2 {
		t.Fatalf("clock = %v after RunBefore(2), want 2", s.Now())
	}
	s.RunUntil(2)
	if len(got) != 2 || got[1] != 2 {
		t.Fatalf("RunUntil(2) after RunBefore(2) fired %v, want [1 2]", got)
	}
	// Scheduling exactly at the window edge from outside is legal: the
	// clock sits at the limit.
	s.At(2, rec)
	s.RunBefore(2.5)
	if len(got) != 3 || got[2] != 2 {
		t.Fatalf("edge event: fired %v, want [1 2 2]", got)
	}
	s.RunBefore(10)
	if len(got) != 4 || got[3] != 3 {
		t.Fatalf("final window fired %v, want [1 2 2 3]", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("RunBefore into the past did not panic")
			}
		}()
		s.RunBefore(5)
	}()
}

// TestAtOriginTieOrder pins the causal tie-break: events that share one
// firing instant fire in origin order regardless of scheduling order,
// with scheduling order (seq) deciding only among equal origins. This
// is what lets a cross-shard injection — scheduled at a window barrier,
// after every window-local event — reclaim the position its emission
// time would have earned it on a serial engine.
func TestAtOriginTieOrder(t *testing.T) {
	var s Scheduler
	var got []string
	rec := func(name string) Event { return func() { got = append(got, name) } }

	// Local events scheduled while the clock advances: their keys are
	// their scheduling instants 0.0 and 0.2.
	s.At(1.0, rec("local@0.0"))
	s.At(0.2, func() {
		s.At(1.0, rec("local@0.2"))
		// Injections arriving late (higher seq) but with origins that
		// interleave the local keys.
		s.AtOrigin(1.0, 0.1, rec("inject@0.1"))
		s.AtOrigin(1.0, 0.3, rec("inject@0.3"))
		// Equal origins fall back to scheduling order.
		s.AtOrigin(1.0, 0.1, rec("inject@0.1-second"))
	})
	s.RunUntil(2)

	want := []string{"local@0.0", "inject@0.1", "inject@0.1-second", "local@0.2", "inject@0.3"}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing order %v, want %v", got, want)
		}
	}

	// origin may precede the clock (the emitter's clock lags the
	// injecting shard's), but never the firing time.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("AtOrigin with origin > at did not panic")
			}
		}()
		s.AtOrigin(3.0, 3.5, rec("bad"))
	}()
}
