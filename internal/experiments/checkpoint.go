package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"sort"

	"repro/internal/checkpoint"
	"repro/internal/des"
	"repro/internal/obs"
	"repro/internal/shard"
)

// CheckpointOptions is the process-wide checkpoint selection, set by
// the CLI before scenarios run (the same pattern as Observe). Every
// field off keeps runs on the exact pre-checkpoint instruction path:
// no capture, no extra RunUntil stepping beyond the epoch boundaries
// the run already had.
type CheckpointOptions struct {
	// Every is the snapshot cadence in simulated seconds: a snapshot is
	// written at the end of warmup and then every Every seconds of the
	// measured window. <= 0 disables snapshotting.
	Every float64
	// Dir is the directory snapshots are written into (one file per
	// labeled job, atomically replaced at each instant).
	Dir string
	// Resume, when set, asks every labeled run to continue from the
	// snapshot found in this directory. A missing snapshot degrades to a
	// from-scratch run; a snapshot whose config digest does not match
	// the run fails loudly rather than corrupting output.
	Resume string
}

// Checkpoint is the process-wide checkpoint configuration.
var Checkpoint CheckpointOptions

// capFn resolves the scheduler that owns a timer to the point-in-time
// capture of that scheduler's pending set. Captures are built lazily —
// one O(pending) scan per scheduler per snapshot — and shared by every
// component saving against the same scheduler.
type capFn = func(*des.Scheduler) *des.TimerCapture

func captureAll() capFn {
	caps := make(map[*des.Scheduler]*des.TimerCapture, 4)
	return func(s *des.Scheduler) *des.TimerCapture {
		c := caps[s]
		if c == nil {
			c = s.CaptureTimers()
			caps[s] = c
		}
		return c
	}
}

// schedulers returns the cluster's scheduling domains in shard order.
func schedulers(c *shard.Cluster) []*des.Scheduler {
	scheds := make([]*des.Scheduler, c.Shards())
	for i := range scheds {
		scheds[i] = c.Shard(i).Sched()
	}
	return scheds
}

// configDigest folds the run's whole configuration — every
// TopoSimConfig field except Resume, which only says where to resume
// from — with its executor shape and epoch structure into one 64-bit
// value. The config enters as its canonical JSON encoding, so a field
// added to TopoSimConfig (or to the fault, watch and churn types it
// embeds) is covered without touching this function. A snapshot
// restores only into a run whose digest matches exactly; anything else
// is a different simulation and resuming into it would silently corrupt
// output.
func configDigest(cfg *TopoSimConfig, shards, epochs int) uint64 {
	c := *cfg
	c.Resume = ""
	enc, err := json.Marshal(&c)
	if err != nil {
		panic(fmt.Sprintf("experiments: encoding the config digest: %v", err))
	}
	var d checkpoint.Digest
	d.Str("toposim")
	d.Str(string(enc))
	d.Int(shards)
	d.Int(epochs)
	return d.Sum()
}

// instant is one stop of the measured window's stepping sequence: an
// epoch boundary, a checkpoint time, or both when they coincide. The
// sequence is pure float arithmetic from the config, so every executor
// and an interrupted run's resumed continuation step through identical
// instants.
type instant struct {
	t     float64
	epoch int     // epoch index ending at t, -1 when not a boundary
	start float64 // the ending epoch's window start (epoch >= 0 only)
	save  bool    // write a snapshot at t
}

// measure runs the warmup, restarts the measurement windows, and steps
// the measured window through its instants — resuming from a snapshot
// instead when one is requested and present. With observability off and
// no checkpointing that is exactly two Run calls; epoch boundaries and
// snapshot times only add stops, never events or random draws, so the
// trajectory is the same whichever are on.
func (r *simRun) measure() {
	s := r.spec
	r.saving = Checkpoint.Every > 0 && Checkpoint.Dir != "" && s.label != ""
	resuming := s.resume != "" && s.label != ""
	if r.saving || resuming {
		if Observe.TraceCap > 0 {
			panic("experiments: checkpoint/resume is incompatible with event tracing (-trace): the bounded trace rings are not part of a snapshot")
		}
		epochs := 0
		if r.ob != nil {
			epochs = r.ob.epochs
		}
		r.digest = s.digest(max(s.shards, 1), epochs)
	}
	from := -1.0
	if resuming {
		if t, ok := r.tryResume(); ok {
			from = t
		}
	}
	if from < 0 {
		r.env.Run(s.warmup)
		r.resetStats()
		r.ob.begin()
		r.saveAt(s.warmup)
		from = s.warmup
	}
	for _, in := range r.instants() {
		if in.t <= from {
			continue
		}
		r.env.Run(in.t)
		if in.epoch >= 0 {
			r.ob.boundary(in.epoch, in.start, in.t)
		}
		if in.save {
			r.saveAt(in.t)
		}
	}
}

// instants returns the merged, sorted stepping sequence of the measured
// window: every epoch boundary and every checkpoint time, coinciding
// stops folded into one, always ending at the end of the run.
func (r *simRun) instants() []instant {
	var list []instant
	from, to := r.spec.warmup, r.end
	if r.ob != nil && r.ob.epochs > 1 {
		n := r.ob.epochs
		w := (to - from) / float64(n)
		start := from
		for i := 0; i < n; i++ {
			end := from + w*float64(i+1)
			if i == n-1 {
				end = to
			}
			list = append(list, instant{t: end, epoch: i, start: start})
			start = end
		}
	}
	if r.saving {
		for k := 1; ; k++ {
			t := from + float64(k)*Checkpoint.Every
			if t >= to {
				break
			}
			list = append(list, instant{t: t, epoch: -1, save: true})
		}
		sort.SliceStable(list, func(i, j int) bool { return list[i].t < list[j].t })
	}
	out := list[:0]
	for _, in := range list {
		if n := len(out); n > 0 && out[n-1].t == in.t {
			if in.epoch >= 0 {
				out[n-1].epoch = in.epoch
				out[n-1].start = in.start
			}
			out[n-1].save = out[n-1].save || in.save
			continue
		}
		out = append(out, in)
	}
	if n := len(out); n == 0 || out[n-1].t < to {
		out = append(out, instant{t: to, epoch: -1})
	}
	return out
}

// saveAt snapshots the full simulation state at the current (phase-
// aligned) instant and atomically replaces the job's snapshot file.
func (r *simRun) saveAt(t float64) {
	if !r.saving {
		return
	}
	var w checkpoint.Writer
	r.save(&w)
	path := checkpoint.PathFor(Checkpoint.Dir, r.spec.label)
	if err := checkpoint.WriteFile(path, r.digest, w.Bytes()); err != nil {
		panic(fmt.Sprintf("experiments: writing checkpoint %s at t=%g: %v", path, t, err))
	}
}

// tryResume loads the job's snapshot from the resume directory. A
// missing file degrades to a from-scratch run (false); a present but
// corrupt or mismatched file is fatal — resuming it would corrupt
// output.
func (r *simRun) tryResume() (float64, bool) {
	path := checkpoint.PathFor(r.spec.resume, r.spec.label)
	digest, payload, err := checkpoint.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, false
	}
	if err != nil {
		panic(fmt.Sprintf("experiments: resume: %v", err))
	}
	if digest != r.digest {
		panic(fmt.Sprintf(
			"experiments: resume %s: config digest mismatch: snapshot was written under config %016x, this run is config %016x; refusing to resume a different simulation",
			path, digest, r.digest))
	}
	rd := checkpoint.NewReader(payload)
	now := r.restore(rd)
	if err := rd.Err(); err != nil {
		panic(fmt.Sprintf("experiments: resume %s: %v", path, err))
	}
	return now, true
}

// save writes the full simulation state in the fixed section order the
// restore path consumes: scheduler clocks, link contents, the static
// protocol endpoints group by group, recovery watchers, the armed fault
// plan, the churn engine, the per-flow overlay, in-flight hand-offs, the
// epoch log, and — last — the freelist ledgers.
func (r *simRun) save(w *checkpoint.Writer) {
	capOf := captureAll()
	scheds := schedulers(r.env)
	w.Int(len(scheds))
	for _, s := range scheds {
		w.F64(s.Now())
		w.U64(s.Seq())
		w.U64(s.Fired())
		w.U64(s.Cascaded())
		w.Int(s.Pending())
	}
	r.env.SaveLinks(w, capOf)
	for gi := range r.groups {
		gr := &r.groups[gi]
		for _, f := range gr.tfrc {
			f.snd.Save(w, capOf(f.snd.Scheduler()))
			f.rcv.Save(w, capOf(f.rcv.Scheduler()))
		}
		for _, f := range gr.tcp {
			f.snd.Save(w, capOf(f.snd.Scheduler()))
			f.rcv.Save(w)
		}
	}
	w.Int(len(r.watchers))
	for _, rw := range r.watchers {
		rw.save(w, capOf(rw.sched))
	}
	r.armed.Save(w, capOf)
	w.Bool(r.churn != nil)
	if r.churn != nil {
		r.churn.Save(w, capOf)
	}
	r.env.SaveFlows(w)
	r.env.SaveDeliveries(w, capOf)
	r.env.SaveInjections(w, capOf)
	w.Bool(r.ob != nil)
	if r.ob != nil {
		r.ob.save(w)
	}
	r.env.SaveLedger(w)
}

// restore overlays a snapshot onto the freshly rebuilt simulation and
// returns the restored simulation time. The section order matches save;
// the sequencing constraints are structural: schedulers reset first (so
// every stale rebuild-time timer dies), protocol and churn restores
// re-arm their timers and re-attach churn flows before the flow overlay
// validates the attached population, and the ledgers restore last so
// the leak invariant holds the moment restore returns.
func (r *simRun) restore(rd *checkpoint.Reader) float64 {
	scheds := schedulers(r.env)
	if n := rd.Count(); n != len(scheds) {
		rd.Fail("snapshot has %d schedulers, this cluster has %d", n, len(scheds))
		return 0
	}
	now := 0.0
	pending := make([]int, len(scheds))
	for i, s := range scheds {
		t := rd.F64()
		seq := rd.U64()
		fired := rd.U64()
		cascaded := rd.U64()
		pending[i] = rd.Int()
		if rd.Err() != nil {
			return 0
		}
		if t < r.spec.warmup || t > r.end {
			rd.Fail("snapshot clock %g outside this run's measured window [%g, %g]",
				t, r.spec.warmup, r.end)
			return 0
		}
		s.Reset()
		s.RestoreClock(t, seq, fired, cascaded)
		now = t
	}
	r.env.RestoreLinks(rd)
	for gi := range r.groups {
		gr := &r.groups[gi]
		for _, f := range gr.tfrc {
			if rd.Err() != nil {
				return 0
			}
			f.snd.Restore(rd)
			f.rcv.Restore(rd)
		}
		for _, f := range gr.tcp {
			if rd.Err() != nil {
				return 0
			}
			f.snd.Restore(rd)
			f.rcv.Restore(rd)
		}
	}
	if n := rd.Count(); n != len(r.watchers) {
		rd.Fail("snapshot has %d recovery watchers, rebuilt run has %d", n, len(r.watchers))
		return 0
	}
	for _, rw := range r.watchers {
		rw.restore(rd)
	}
	r.armed.Restore(rd)
	hadChurn := rd.Bool()
	if hadChurn != (r.churn != nil) {
		rd.Fail("snapshot and rebuilt run disagree on churn presence")
		return 0
	}
	if r.churn != nil {
		r.churn.Restore(rd)
	}
	r.env.RestoreFlows(rd)
	r.env.RestoreDeliveries(rd)
	r.env.RestoreInjections(rd)
	hadObs := rd.Bool()
	if hadObs != (r.ob != nil) {
		rd.Fail("snapshot and rebuilt run disagree on observability capture")
		return 0
	}
	if r.ob != nil {
		r.ob.restore(rd)
	}
	r.env.RestoreLedger(rd)
	if rd.Err() != nil {
		return 0
	}
	for i, s := range scheds {
		if got := s.Pending(); got != pending[i] {
			rd.Fail("scheduler %d restored %d pending events, snapshot recorded %d",
				i, got, pending[i])
			return 0
		}
	}
	return now
}

// --- rateWatch checkpoint hooks ---

func (rw *rateWatch) save(w *checkpoint.Writer, cap *des.TimerCapture) {
	w.F64(rw.preRate)
	w.F64(rw.recoveredAt)
	w.Timer(cap.StateOf(rw.tm))
}

func (rw *rateWatch) restore(r *checkpoint.Reader) {
	rw.preRate = r.F64()
	rw.recoveredAt = r.F64()
	rw.tm = rw.sched.RestoreTimer(r.Timer(), rw.fn)
}

// --- obsRun checkpoint hooks ---

func saveEpoch(w *checkpoint.Writer, e obs.Epoch) {
	w.Int(e.Index)
	w.F64(e.Start)
	w.F64(e.End)
	w.U64(e.Fired)
	w.I64(e.Enqueued)
	w.I64(e.Forwarded)
	w.I64(e.Bytes)
	w.I64(e.QueueDrops)
	w.I64(e.EarlyDrops)
	w.I64(e.FaultDrops)
	w.Int(e.QueueLen)
	w.Int(e.Pending)
	w.I64(e.Outstanding)
}

func restoreEpoch(r *checkpoint.Reader) obs.Epoch {
	var e obs.Epoch
	e.Index = r.Int()
	e.Start = r.F64()
	e.End = r.F64()
	e.Fired = r.U64()
	e.Enqueued = r.I64()
	e.Forwarded = r.I64()
	e.Bytes = r.I64()
	e.QueueDrops = r.I64()
	e.EarlyDrops = r.I64()
	e.FaultDrops = r.I64()
	e.QueueLen = r.Int()
	e.Pending = r.Int()
	e.Outstanding = r.I64()
	return e
}

// save writes the capture's accumulated state: the previous-boundary
// totals, the epochs logged so far, and the boundary-aligned Unbounded
// queue samples.
func (o *obsRun) save(w *checkpoint.Writer) {
	saveEpoch(w, o.prev)
	n := 0
	if o.log != nil {
		n = len(o.log.Epochs)
	}
	w.Int(n)
	for i := 0; i < n; i++ {
		saveEpoch(w, o.log.Epochs[i])
	}
	w.Int(len(o.uhw))
	for i := range o.uhw {
		w.F64(o.uhw[i])
		w.F64(o.headroom[i])
	}
}

// restore overlays the capture state saved by save.
func (o *obsRun) restore(r *checkpoint.Reader) {
	o.prev = restoreEpoch(r)
	n := r.Count()
	if o.epochs > 1 && n > o.epochs {
		r.Fail("snapshot logged %d epochs, this run has %d", n, o.epochs)
		return
	}
	if o.log != nil {
		o.log.Epochs = o.log.Epochs[:0]
	}
	for i := 0; i < n; i++ {
		if r.Err() != nil {
			return
		}
		e := restoreEpoch(r)
		if o.log != nil {
			o.log.Epochs = append(o.log.Epochs, e)
		}
	}
	m := r.Count()
	o.uhw, o.headroom = o.uhw[:0], o.headroom[:0]
	for i := 0; i < m; i++ {
		o.uhw = append(o.uhw, r.F64())
		o.headroom = append(o.headroom, r.F64())
	}
}
