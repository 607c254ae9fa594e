package core

import (
	"sync/atomic"
	"time"

	"kvaccel/internal/lsm"
	"kvaccel/internal/trace"
	"kvaccel/internal/vclock"
)

// Detector periodically samples the main engine's stall signals — L0
// file count, memtable fill, and pending compaction bytes (§V-C) — and
// publishes a redirect decision the Controller reads on every write. It
// runs detached from the write path, refreshing every Period (0.1 s in
// the paper's implementation).
type Detector struct {
	main   MainEngine
	period time.Duration

	stall    atomic.Bool
	hard     atomic.Bool          // sampled Health.Stalled: writers blocked right now
	override atomic.Pointer[bool] // non-nil pins the stall signal (tests, ablations)
	checks   atomic.Int64
	closed   atomic.Bool
	tracer   atomic.Pointer[trace.Tracer]

	lastHealth atomic.Pointer[lsm.Health]
}

// NewDetector creates a detector over main; Start launches its runner.
func NewDetector(main MainEngine, period time.Duration) *Detector {
	d := &Detector{main: main, period: period}
	h := lsm.Health{}
	d.lastHealth.Store(&h)
	return d
}

// Start launches the detector runner on clk.
func (d *Detector) Start(clk *vclock.Clock) {
	clk.Go("kvaccel.detector", func(r *vclock.Runner) {
		for !d.closed.Load() {
			d.Check(r)
			r.Sleep(d.period)
		}
	})
}

// Check performs one detection pass. It is exposed for tests and the
// Table VI overhead bench, which measures its wall-clock cost; it charges
// no virtual CPU.
func (d *Detector) Check(r *vclock.Runner) {
	h := d.main.Health()
	d.lastHealth.Store(&h)
	// The write-stall prediction (§V-C) is the engine's exported stall
	// signal: a stop condition already holding, a slowdown trigger, or
	// the anticipatory memtable-pressure signal.
	sig := h.StallSignal()
	d.hard.Store(h.Stalled)
	if prev := d.stall.Swap(sig); prev != sig {
		if tr := d.tracer.Load(); tr != nil {
			if sig {
				tr.Instant(r, trace.PhaseDetector, "stall-on", int64(h.L0Files))
			} else {
				tr.Instant(r, trace.PhaseDetector, "stall-off", int64(h.L0Files))
			}
		}
	}
	d.checks.Add(1)
}

// SetTracer wires a tracer for stall-signal transition instants. Safe
// to call at any time; nil detaches.
func (d *Detector) SetTracer(tr *trace.Tracer) {
	if tr == nil {
		d.tracer.Store(nil)
		return
	}
	d.tracer.Store(tr)
}

// StallLikely is the Controller's per-write redirect signal.
func (d *Detector) StallLikely() bool {
	if o := d.override.Load(); o != nil {
		return *o
	}
	return d.stall.Load()
}

// StallNow is the narrower pre-emptive redirect signal for controllers
// whose write path fails over on its own (Options.StallFailover): it is
// true only when the last sample caught writers actually blocked in a
// hard stall. The broader predictive signals (slowdown triggers,
// memtable pressure) are left to the write path's fail-fast admission —
// ErrWouldStall is ground truth at write time, while this sample is up
// to a Detector period old — so near-stall traffic keeps filling groups
// on the fast main path instead of being siphoned to the device.
// An override pins this signal too.
func (d *Detector) StallNow() bool {
	if o := d.override.Load(); o != nil {
		return *o
	}
	return d.hard.Load()
}

// SetOverride pins the stall signal regardless of the Main-LSM's real
// health — used by tests and the redirection-ablation benches.
func (d *Detector) SetOverride(v bool) { d.override.Store(&v) }

// ClearOverride restores normal detection.
func (d *Detector) ClearOverride() { d.override.Store(nil) }

// Health returns the last sampled Main-LSM health.
func (d *Detector) Health() lsm.Health { return *d.lastHealth.Load() }

// Checks returns how many detection passes have run.
func (d *Detector) Checks() int64 { return d.checks.Load() }

// Stop halts the runner after its current sleep.
func (d *Detector) Stop() { d.closed.Store(true) }
