package des

import (
	"math/bits"

	"repro/internal/checkpoint"
)

// Seq returns the next sequence number the scheduler would assign. It
// is saved alongside Now/Fired/Cascaded so a restored scheduler keeps
// numbering events exactly where the original left off.
func (s *Scheduler) Seq() uint64 { return s.seq }

// TimerCapture is a point-in-time index of every live pending event,
// built by one O(pending) scan at snapshot time. It exists so that
// components can translate their retained Timer handles into portable
// (at, key, seq) triples without the scheduler storing those fields in
// the slot table — the hot scheduling path stays untouched.
type TimerCapture struct {
	s  *Scheduler
	by map[uint64]checkpoint.TimerState // keyed by packed (gen, slot)
}

// CaptureTimers scans the working set, every wheel bucket and the
// overflow level and indexes all live entries. Dead (lazily cancelled)
// entries are skipped. The capture is transient: it is valid only until
// the scheduler next runs.
func (s *Scheduler) CaptureTimers() *TimerCapture {
	c := &TimerCapture{s: s, by: make(map[uint64]checkpoint.TimerState, s.live)}
	add := func(e entry) {
		if s.slots[e.slot()].gen == e.gen() {
			c.by[e.genslot] = checkpoint.TimerState{OK: true, At: e.at, Key: e.key, Seq: e.seq}
		}
	}
	for _, e := range s.cur[s.curIdx:] {
		add(e)
	}
	for l := range s.levels {
		lv := &s.levels[l]
		for w, word := range lv.bitmap {
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &^= 1 << uint(b)
				for n := lv.head[w<<6+b]; n != 0; n = s.nodes[n-1].next {
					add(s.nodes[n-1].e)
				}
			}
		}
	}
	for _, e := range s.overflow {
		add(e)
	}
	return c
}

// StateOf resolves a Timer handle against the capture. A zero, fired,
// cancelled or foreign-scheduler timer resolves to the zero TimerState
// (OK false), which restores to the zero Timer.
func (c *TimerCapture) StateOf(t Timer) checkpoint.TimerState {
	if t.s != c.s {
		return checkpoint.TimerState{}
	}
	return c.by[packGenSlot(t.gen, t.slot)]
}

// Len returns the number of live timers captured.
func (c *TimerCapture) Len() int { return len(c.by) }

// RestoreClock overwrites the scheduler's clock state with values saved
// from a running scheduler: current time, next sequence number, and the
// fired/cascaded counters. The pending set must be empty (call Reset
// first); restored events are then re-armed with RestoreAt.
func (s *Scheduler) RestoreClock(now float64, seq, fired, cascaded uint64) {
	if s.live != 0 || s.dead != 0 {
		panic("des: RestoreClock on a scheduler with pending events")
	}
	if !(now >= 0) { // NaN fails too
		panic("des: RestoreClock with negative time")
	}
	s.now = now
	s.seq = seq
	s.fired = fired
	s.cascaded = cascaded
	s.cur = s.cur[:0]
	s.curIdx = 0
	s.curTick = tickOf(now)
}

// RestoreAt re-arms an event with an explicit saved identity: firing
// time, causal key and the sequence number it drew in the original run.
// Unlike At/AtOrigin it does not consume a fresh sequence number, so a
// restored pending set fires in exactly the original (at, key, seq)
// total order, and events scheduled after the restore point continue
// the original numbering. The saved seq must predate the restored
// scheduler's next seq.
func (s *Scheduler) RestoreAt(at, key float64, seq uint64, fn Event) Timer {
	if !(at >= s.now) { // NaN fails too
		panic("des: restoring an event into the past")
	}
	if !(key <= at) {
		panic("des: restored origin after firing time")
	}
	if seq >= s.seq {
		panic("des: restored seq from the future")
	}
	if fn == nil {
		panic("des: nil event")
	}
	var id int32
	if n := len(s.free); n > 0 {
		id = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.slots = append(s.slots, slot{})
		id = int32(len(s.slots) - 1)
	}
	sl := &s.slots[id]
	sl.fn = fn
	s.live++
	s.insert(entry{at: at, key: key, seq: seq, genslot: packGenSlot(sl.gen, id)})
	return Timer{s: s, gen: sl.gen, slot: id}
}

// RestoreTimer re-arms a timer from a saved TimerState, returning the
// inert zero Timer when the state is not OK (the timer was dead at save
// time). It is the restore-side pairing of TimerCapture.StateOf.
func (s *Scheduler) RestoreTimer(st checkpoint.TimerState, fn Event) Timer {
	if !st.OK {
		return Timer{}
	}
	return s.RestoreAt(st.At, st.Key, st.Seq, fn)
}
