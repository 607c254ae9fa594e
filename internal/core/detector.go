package core

import (
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

	stall    bool
	hard     bool  // sampled Health.Stalled: writers blocked right now
	override *bool // non-nil pins the stall signal (tests, ablations)
	checks   int64
	closed   bool
	tracer   *trace.Tracer

	lastHealth lsm.Health
}

// NewDetector creates a detector over main; Start launches its runner.
func NewDetector(main MainEngine, period time.Duration) *Detector {
	return &Detector{main: main, period: period}
}

// Start launches the detector runner on clk.
func (d *Detector) Start(clk *vclock.Clock) {
	clk.Go("kvaccel.detector", func(r *vclock.Runner) {
		for !d.closed {
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
	d.lastHealth = h
	// The write-stall prediction (§V-C) is the engine's exported stall
	// signal: a stop condition already holding, a slowdown trigger, or
	// the anticipatory memtable-pressure signal.
	sig := h.StallSignal()
	d.hard = h.Stalled
	if prev := d.stall; prev != sig {
		d.stall = sig
		if tr := d.tracer; tr != nil {
			if sig {
				tr.Instant(r, trace.PhaseDetector, "stall-on", int64(h.L0Files))
			} else {
				tr.Instant(r, trace.PhaseDetector, "stall-off", int64(h.L0Files))
			}
		}
	}
	d.checks++
}

// SetTracer wires a tracer for stall-signal transition instants; nil
// detaches.
func (d *Detector) SetTracer(tr *trace.Tracer) { d.tracer = tr }

// StallLikely is the Controller's per-write redirect signal.
func (d *Detector) StallLikely() bool {
	if o := d.override; o != nil {
		return *o
	}
	return d.stall
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
	if o := d.override; o != nil {
		return *o
	}
	return d.hard
}

// SetOverride pins the stall signal regardless of the Main-LSM's real
// health — used by tests and the redirection-ablation benches.
func (d *Detector) SetOverride(v bool) { d.override = &v }

// ClearOverride restores normal detection.
func (d *Detector) ClearOverride() { d.override = nil }

// Health returns the last sampled Main-LSM health.
func (d *Detector) Health() lsm.Health { return d.lastHealth }

// Checks returns how many detection passes have run.
func (d *Detector) Checks() int64 { return d.checks }

// Stop halts the runner after its current sleep.
func (d *Detector) Stop() { d.closed = true }
