package des

import "testing"

// schedulerPatterns are the scheduler's hot-path cycles. Each setup
// primes a fresh scheduler and returns one iteration of the cycle; the
// benchmarks below time it and TestSteadyStateZeroAlloc requires it to
// allocate nothing once warm.
var schedulerPatterns = []struct {
	name  string
	setup func(s *Scheduler) func()
}{
	// Fire is the schedule-one/fire-one cycle: the event-loop cost every
	// simulated packet pays at least twice (enqueue at the sender,
	// transmit completion at the link).
	{"Fire", func(s *Scheduler) func() {
		fn := func() {}
		return func() {
			s.After(1, fn)
			s.Step()
		}
	}},
	// TimerChurn is the cancel/re-arm pattern of the protocol timers
	// (TFRC no-feedback, TCP retransmit): every ACK cancels a pending
	// timer and schedules a fresh one.
	{"TimerChurn", func(s *Scheduler) func() {
		fn := func() {}
		tm := s.After(1, fn)
		return func() {
			tm.Cancel()
			tm = s.After(2, fn)
			s.After(1, fn)
			s.Step()
		}
	}},
	// DeepQueue is push/pop with 1024 pending events, the regime of a
	// loaded dumbbell with hundreds of timers and in-flight packets.
	{"DeepQueue", func(s *Scheduler) func() {
		return deepQueue(s, 1024, 1)
	}},
	// DeepQueue8K is the same pattern against 8192 pending events, the
	// pending-set size a 16-hop, 512-flow chain sustains; the timing
	// wheel's per-event cost must stay flat between 1K and 8K.
	{"DeepQueue8K", func(s *Scheduler) func() {
		return deepQueue(s, 8192, 8)
	}},
	// StaggeredStart is a simulation's setup in miniature: one event a
	// second ahead, then 1024 flow starts at staggered instants before
	// it, scheduled in scrambled order, then the clock runs through
	// all of them. One cycle is 1025 events.
	{"StaggeredStart", func(s *Scheduler) func() {
		fn := func() {}
		order := scrambled(1024)
		return func() {
			base := s.Now()
			s.At(base+1, fn)
			for _, k := range order {
				s.At(base+float64(k+1)/1025, fn)
			}
			s.RunUntil(base + 1)
		}
	}},
}

// scrambled returns a fixed permutation of 0..n-1 that scatters
// neighbours: a stride coprime to n (7919 is prime and n must not be a
// multiple of it).
func scrambled(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i * 7919 % n
	}
	return order
}

// deepQueue primes s with n pending events spaced 1/perSec apart and
// returns the schedule-ahead/fire cycle run against them.
func deepQueue(s *Scheduler, n int, perSec float64) func() {
	fn := func() {}
	for i := 0; i < n; i++ {
		s.After(float64(i)/perSec+0.5, fn)
	}
	return func() {
		s.After(0.25, fn)
		s.Step()
	}
}

func benchSchedulerPattern(b *testing.B, i int) {
	var s Scheduler
	work := schedulerPatterns[i].setup(&s)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		work()
	}
}

func BenchmarkSchedulerFire(b *testing.B)           { benchSchedulerPattern(b, 0) }
func BenchmarkSchedulerTimerChurn(b *testing.B)     { benchSchedulerPattern(b, 1) }
func BenchmarkSchedulerDeepQueue(b *testing.B)      { benchSchedulerPattern(b, 2) }
func BenchmarkSchedulerDeepQueue8K(b *testing.B)    { benchSchedulerPattern(b, 3) }
func BenchmarkSchedulerStaggeredStart(b *testing.B) { benchSchedulerPattern(b, 4) }
