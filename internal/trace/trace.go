// Package trace is the simulator's virtual-clock-native tracing and
// profiling subsystem. It records span-based causal traces — Begin/End
// and Complete events with parent links, virtual timestamps, and
// per-runner "thread" lanes — into sharded ring buffers, and rolls every
// closed span into an exact per-phase latency aggregate regardless of
// ring wrap. Traces export as Chrome trace-event JSON (loadable in
// chrome://tracing or Perfetto, see export.go) and reduce to a
// stall-window attribution report (summary.go).
//
// Tracing is opt-in and nil-safe: every hook on a nil *Tracer is a
// single pointer check — no allocation, no lock, no clock read — so
// instrumented hot paths cost nothing when tracing is off. Timestamps
// are virtual (vclock.Time), so an enabled tracer changes no modeled
// time either; it only spends host CPU.
package trace

import (
	"sort"
	"time"

	"kvaccel/internal/vclock"
)

// Phase classifies where virtual time is spent. Phases are the rows of
// the attribution table; event names refine them (e.g. phase nvme-exec,
// name "KV_PUT").
type Phase uint8

const (
	PhaseNone Phase = iota
	PhasePut
	PhaseGet
	PhaseBatch
	PhaseRedirect
	PhaseWALAppend
	PhaseMemtableInsert
	PhaseStallWait
	PhaseSlowdown
	PhaseFlush
	PhaseFlushIO
	PhaseCompaction
	PhaseCompactionIO
	PhaseNVMeQueue
	PhaseNVMeExec
	PhaseNANDRead
	PhaseNANDProg
	PhaseNANDErase
	PhaseDevLSM
	PhaseDevLSMFlush
	PhaseRollback
	PhaseRollbackScan
	PhaseRecovery
	PhaseDetector
	PhaseWriteGroup
	PhaseVLogAppend
	PhaseVLogRead
	PhaseVLogGC
	PhaseFrontCache
	PhaseSSTGet
	PhaseScan
	PhaseNetXfer
	PhaseAcceptQueue
	PhaseServeLinger
	PhaseServeEngine
	PhaseServeReply
	PhaseServeShed

	NumPhases
)

var phaseNames = [NumPhases]string{
	PhaseNone:           "none",
	PhasePut:            "put",
	PhaseGet:            "get",
	PhaseBatch:          "write-batch",
	PhaseRedirect:       "redirect",
	PhaseWALAppend:      "wal-append",
	PhaseMemtableInsert: "memtable-insert",
	PhaseStallWait:      "stall-wait",
	PhaseSlowdown:       "slowdown",
	PhaseFlush:          "flush",
	PhaseFlushIO:        "flush-io",
	PhaseCompaction:     "compaction",
	PhaseCompactionIO:   "compaction-io",
	PhaseNVMeQueue:      "nvme-queue",
	PhaseNVMeExec:       "nvme-exec",
	PhaseNANDRead:       "nand-read",
	PhaseNANDProg:       "nand-prog",
	PhaseNANDErase:      "nand-erase",
	PhaseDevLSM:         "devlsm",
	PhaseDevLSMFlush:    "devlsm-flush",
	PhaseRollback:       "rollback",
	PhaseRollbackScan:   "rollback-scan",
	PhaseRecovery:       "recovery",
	PhaseDetector:       "detector",
	PhaseWriteGroup:     "write-group",
	PhaseVLogAppend:     "vlog-append",
	PhaseVLogRead:       "vlog-read",
	PhaseVLogGC:         "vlog-gc",
	PhaseFrontCache:     "front-cache",
	PhaseSSTGet:         "sst-get",
	PhaseScan:           "scan",
	PhaseNetXfer:        "net-xfer",
	PhaseAcceptQueue:    "accept-queue",
	PhaseServeLinger:    "serve-linger",
	PhaseServeEngine:    "serve-engine",
	PhaseServeReply:     "serve-reply",
	PhaseServeShed:      "serve-shed",
}

func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return "phase?"
}

// activityPhases are the phases that represent background/device work a
// stalled writer is waiting behind; the stall report attributes stall
// windows to overlap with these.
var activityPhases = []Phase{
	PhaseFlush, PhaseFlushIO, PhaseCompaction, PhaseCompactionIO,
	PhaseNVMeQueue, PhaseNVMeExec,
	PhaseNANDRead, PhaseNANDProg, PhaseNANDErase,
	PhaseDevLSM, PhaseDevLSMFlush,
	PhaseRollback, PhaseRollbackScan, PhaseRecovery,
	PhaseVLogGC,
}

// Event kinds, matching Chrome trace-event phase letters.
const (
	KindBegin    = 'B' // span open (duration begin)
	KindEnd      = 'E' // span close (duration end)
	KindComplete = 'X' // retro-recorded complete span with explicit duration
	KindInstant  = 'i' // point event
)

// Event is one trace record. TS is virtual time (plus the tracer's time
// base, see SetTimeBase); Dur is only meaningful for KindComplete.
type Event struct {
	Seq      uint64 // global emission order, tie-break for equal TS
	TS       vclock.Time
	Dur      time.Duration
	Name     string // constant string in instrumented code: no per-event alloc
	LaneName string
	Lane     uint64 // runner id = Chrome tid
	Span     uint64 // span id (0 for instants)
	Parent   uint64 // causal parent span id (0 = none)
	Arg      int64  // free per-event argument (bytes, flags, ...)
	Kind     byte
	Phase    Phase
}

const numShards = 16

// shard is one ring. Events are sharded by lane, so one busy runner
// overwrites its own lane's oldest events, not everyone's.
type shard struct {
	buf []Event
	n   uint64 // events ever emitted to this shard
}

// Tracer records events. The zero *Tracer (nil) is a valid disabled
// tracer: all methods are no-ops. Create an enabled one with New.
type Tracer struct {
	seq    uint64      // event sequence
	spanID uint64      // span ids, 1-based
	base   vclock.Time // virtual-time offset added to every timestamp
	// agg is the always-exact per-phase rollup, updated on every span
	// close, so it survives ring wrap.
	agg    [NumPhases]PhaseStat
	shards [numShards]shard
}

// New returns a Tracer whose ring buffers hold roughly capacity events
// in total (oldest events are overwritten once full; the per-phase
// aggregates keep counting exactly).
func New(capacity int) *Tracer {
	per := capacity / numShards
	if per < 64 {
		per = 64
	}
	t := &Tracer{}
	for i := range t.shards {
		t.shards[i].buf = make([]Event, per)
	}
	return t
}

// SetTimeBase sets the offset added to every subsequently recorded
// timestamp. The torture harness uses it to keep one trace monotonic
// across power-cut phases, each of which restarts a fresh clock at 0.
func (t *Tracer) SetTimeBase(base vclock.Time) {
	if t == nil {
		return
	}
	t.base = base
}

func (t *Tracer) emit(e Event) {
	t.seq++
	e.Seq = t.seq
	e.TS += t.base
	s := &t.shards[e.Lane%numShards]
	s.buf[s.n%uint64(len(s.buf))] = e
	s.n++
}

func (t *Tracer) record(ph Phase, d time.Duration) {
	a := &t.agg[ph]
	a.Count++
	a.Total += d
	a.Max = max(a.Max, d)
}

// Span is an open Begin/End pair. It is a value — beginning and ending
// a span allocates nothing. End must be called on the same runner that
// Begin was called on (spans never migrate lanes; cross-runner causality
// uses parent links instead).
type Span struct {
	t     *Tracer
	name  string
	start vclock.Time
	id    uint64
	prev  uint64
	phase Phase
}

// Begin opens a span on r's lane, parented to r's current trace context
// (the innermost span already open on this runner). name must be a
// constant or otherwise pre-existing string.
func (t *Tracer) Begin(r *vclock.Runner, ph Phase, name string) Span {
	if t == nil {
		return Span{}
	}
	return t.beginAt(r, ph, name, r.TraceCtx())
}

// BeginLinked is Begin with an explicit causal parent, for work handed
// off across runners (e.g. an NVMe command executing on a device worker
// parented to the host put that submitted it).
func (t *Tracer) BeginLinked(r *vclock.Runner, ph Phase, name string, parent uint64) Span {
	if t == nil {
		return Span{}
	}
	return t.beginAt(r, ph, name, parent)
}

func (t *Tracer) beginAt(r *vclock.Runner, ph Phase, name string, parent uint64) Span {
	now := r.Now()
	t.spanID++
	id := t.spanID
	prev := r.TraceCtx()
	r.SetTraceCtx(id)
	t.emit(Event{
		TS: now, Name: name, LaneName: r.Name(), Lane: r.ID(),
		Span: id, Parent: parent, Kind: KindBegin, Phase: ph,
	})
	return Span{t: t, name: name, start: now, id: id, prev: prev, phase: ph}
}

// End closes the span at r's current virtual time.
func (s Span) End(r *vclock.Runner) { s.EndArg(r, 0) }

// EndArg closes the span and attaches arg to the end event.
func (s Span) EndArg(r *vclock.Runner, arg int64) {
	if s.t == nil {
		return
	}
	now := r.Now()
	r.SetTraceCtx(s.prev)
	s.t.record(s.phase, now.Sub(s.start))
	s.t.emit(Event{
		TS: now, Name: s.name, LaneName: r.Name(), Lane: r.ID(),
		Span: s.id, Parent: s.prev, Arg: arg, Kind: KindEnd, Phase: s.phase,
	})
}

// Complete records a span retroactively with an explicit start and
// duration, on r's lane. Used where the interval is only known after
// the fact (NVMe queue residency: submit timestamp to dispatch).
func (t *Tracer) Complete(r *vclock.Runner, ph Phase, name string, start vclock.Time, dur time.Duration, parent uint64, arg int64) {
	if t == nil {
		return
	}
	if dur < 0 {
		dur = 0
	}
	t.record(ph, dur)
	t.spanID++
	t.emit(Event{
		TS: start, Dur: dur, Name: name, LaneName: r.Name(), Lane: r.ID(),
		Span: t.spanID, Parent: parent, Arg: arg, Kind: KindComplete, Phase: ph,
	})
}

// Instant records a point event (e.g. a detector stall-state flip).
func (t *Tracer) Instant(r *vclock.Runner, ph Phase, name string, arg int64) {
	if t == nil {
		return
	}
	t.record(ph, 0)
	t.emit(Event{
		TS: r.Now(), Name: name, LaneName: r.Name(), Lane: r.ID(),
		Parent: r.TraceCtx(), Arg: arg, Kind: KindInstant, Phase: ph,
	})
}

// Len returns the number of events currently held in the ring buffers.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		if s.n < uint64(len(s.buf)) {
			n += int(s.n)
		} else {
			n += len(s.buf)
		}
	}
	return n
}

// Dropped returns how many events were overwritten by ring wrap.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	var d uint64
	for i := range t.shards {
		s := &t.shards[i]
		if s.n > uint64(len(s.buf)) {
			d += s.n - uint64(len(s.buf))
		}
	}
	return d
}

// Events snapshots the ring buffers, oldest first, ordered by timestamp
// with emission order as the tie-break.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	var out []Event
	for i := range t.shards {
		s := &t.shards[i]
		if s.n <= uint64(len(s.buf)) {
			out = append(out, s.buf[:s.n]...)
		} else {
			head := s.n % uint64(len(s.buf))
			out = append(out, s.buf[head:]...)
			out = append(out, s.buf[:head]...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TS != out[j].TS {
			return out[i].TS < out[j].TS
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// PhaseStat is one row of the attribution table.
type PhaseStat struct {
	Phase Phase
	Count int64
	Total time.Duration
	Max   time.Duration
}

// Mean returns the average duration per span.
func (ps PhaseStat) Mean() time.Duration {
	if ps.Count == 0 {
		return 0
	}
	return ps.Total / time.Duration(ps.Count)
}

// Stats returns the exact aggregate for one phase (counted at span
// close; unaffected by ring wrap).
func (t *Tracer) Stats(ph Phase) PhaseStat {
	if t == nil || ph >= NumPhases {
		return PhaseStat{Phase: ph}
	}
	s := t.agg[ph]
	s.Phase = ph
	return s
}
