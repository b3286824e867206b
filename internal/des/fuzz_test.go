package des

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// fuzzDelay decodes two bytes into a delay aimed at the wheel's edges:
// same-instant ties, sub-tick offsets, whole ticks, the spans of each
// cascade level ± one tick, distances past the wheel horizon (the
// overflow level) and plain sub-minute delays.
func fuzzDelay(class, mag byte) float64 {
	const tick = 1.0 / ticksPerSecond
	switch class % 6 {
	case 0:
		return 0
	case 1:
		return float64(mag) / 256 * tick
	case 2:
		return float64(mag) * tick
	case 3:
		lvl := 1 + uint(mag)%3
		return float64(uint64(1)<<(lvl*levelBits))*tick + float64(int(mag/3)%3-1)*tick
	case 4:
		return float64(uint64(1)<<(numLevels*levelBits)) * tick * (1 + float64(mag)/64)
	default:
		return float64(mag) / 16
	}
}

// FuzzSchedulerOrder decodes the input into a program of At, AtOrigin,
// Cancel, RunUntil, RunBefore and Reset steps and runs it against the
// wheel and the reference heap, requiring the same firing order, clock
// and pending count after every step. Every fourth event schedules a
// child from inside its callback, so the run loops insert into a moving
// wheel too.
func FuzzSchedulerOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 4, 0, 0, 5, 1, 0, 4, 2, 3, 5, 9, 3, 5, 1})
	// A cancel storm past the compaction threshold, behind a few live
	// events at every distance.
	storm := []byte{0, 1, 9, 0, 3, 40, 6, 4, 100, 0, 5, 200}
	for i := 0; i < 100; i++ {
		storm = append(storm, 0, 4, byte(i), 10, 0, 0)
	}
	f.Add(append(storm, 11, 4, 255))
	r := rng.New(31)
	for i := 0; i < 8; i++ {
		seed := make([]byte, 256)
		for j := range seed {
			seed[j] = byte(r.Uint64())
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4096 {
			prog = prog[:4096]
		}
		var s Scheduler
		ref := &refHeap{}
		dead := map[int]bool{}
		var timers []Timer
		var timerIDs []int
		var got, want []int
		refNow := 0.0
		seq := uint64(0) // reference order among same-(at, key) events
		nextID := 0

		// event returns the callback of event id. Events whose id is a
		// multiple of four schedule a child (id -id-1) after a delay
		// derived from the id; the reference pushes it when it pops the
		// parent.
		var event func(id int) Event
		childDelay := func(id int) float64 { return fuzzDelay(byte(id/4), byte(id)) }
		event = func(id int) Event {
			return func() {
				got = append(got, id)
				if id >= 0 && id%4 == 0 {
					s.At(s.Now()+childDelay(id), event(-id-1))
				}
			}
		}
		add := func(at, key float64, tm Timer, id int) {
			ref.push(refEvent{at: at, key: key, seq: seq, id: id})
			seq++
			timers = append(timers, tm)
			timerIDs = append(timerIDs, id)
		}
		// drain pops every live reference event that fires before the
		// bound (at <= bound, or at < bound when strict).
		drain := func(bound float64, strict bool) {
			for len(ref.es) > 0 {
				e := ref.es[0]
				if dead[e.id] {
					ref.pop()
					continue
				}
				if e.at > bound || strict && e.at == bound {
					break
				}
				ref.pop()
				want = append(want, e.id)
				if e.id >= 0 && e.id%4 == 0 {
					ref.push(refEvent{at: e.at + childDelay(e.id), key: e.at, seq: seq, id: -e.id - 1})
					seq++
				}
			}
		}
		check := func(step int) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("step %d: wheel fired %d events, reference %d\nwheel %v\nref   %v",
					step, len(got), len(want), got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("step %d: firing order diverges at %d\nwheel %v\nref   %v", step, i, got, want)
				}
			}
			if s.Now() != refNow {
				t.Fatalf("step %d: clock %v, reference %v", step, s.Now(), refNow)
			}
			live := 0
			for _, e := range ref.es {
				if !dead[e.id] {
					live++
				}
			}
			if s.Pending() != live {
				t.Fatalf("step %d: pending %d, reference %d", step, s.Pending(), live)
			}
		}

		for step := 0; step+2 < len(prog); step += 3 {
			op, a, b := prog[step], prog[step+1], prog[step+2]
			// Scheduling dominates and Reset is rare, so programs build
			// up a deep pending set between runs.
			switch op % 16 {
			case 0, 1, 2, 3, 4, 5: // At
				id := nextID
				nextID++
				at := s.Now() + fuzzDelay(a, b)
				add(at, s.Now(), s.At(at, event(id)), id)
			case 6, 7, 8: // AtOrigin, origin anywhere in [0, at]
				id := nextID
				nextID++
				at := s.Now() + fuzzDelay(a, b)
				origin := min(at, at*float64(b)/255)
				add(at, origin, s.AtOrigin(at, origin, event(id)), id)
			case 9, 10: // Cancel a timer, possibly fired or cancelled already;
				// op 10 takes the newest, the re-arm pattern of the
				// protocol timers that drives compaction.
				if len(timers) > 0 {
					i := int(a) % len(timers)
					if op%16 == 10 {
						i = len(timers) - 1
					}
					if timers[i].Active() {
						dead[timerIDs[i]] = true
					}
					timers[i].Cancel()
				}
			case 11, 12:
				deadline := s.Now() + fuzzDelay(a, b)
				s.RunUntil(deadline)
				drain(deadline, false)
				refNow = deadline
			case 13, 14:
				limit := s.Now() + fuzzDelay(a, b)
				s.RunBefore(limit)
				drain(limit, true)
				refNow = limit
			case 15:
				s.Reset()
				ref.es = ref.es[:0]
				timers, timerIDs = timers[:0], timerIDs[:0]
				refNow = 0
			}
			check(step)
		}
		for s.Step() {
		}
		drain(math.Inf(1), false)
		refNow = s.Now()
		check(len(prog))
	})
}
