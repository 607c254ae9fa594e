// Package nvme models the NVMe queueing boundary between host and
// device: paired submission/completion queues with a configurable depth,
// doorbell and completion-interrupt latencies, weighted round-robin
// arbitration across queues, and a device-side dispatcher that services
// commands on a bounded pool of firmware slots.
//
// The point of the layer is overlap. A submitter posts a command (paying
// only the doorbell write), keeps going, and awaits the completion later;
// the dispatcher executes the command's device-side work — PCIe DMA, FTL
// lookups, NAND operations, Dev-LSM processing — on a worker of its own, so
// commands from one submitter proceed concurrently in virtual time up to
// the queue depth, and commands from different queues share the device
// under WRR arbitration. This is the mechanism the paper's host-SSD
// collaboration exploits: PCIe transfers of one command overlapping NAND
// programs of another, instead of the strict DMA-then-NAND serialization
// a synchronous call boundary forces.
package nvme

import (
	"fmt"
	"time"

	"kvaccel/internal/faults"
	"kvaccel/internal/metrics"
	"kvaccel/internal/trace"
	"kvaccel/internal/vclock"
)

// Command is one NVMe command. Step is the device-side body, stepped on a
// dispatcher worker that is a kernel task (see vclock.Clock.GoTask): it
// spends the command's virtual time (DMA, controller CPU, NAND) as far as
// it goes without blocking — parking in a stepped primitive, or asking
// for a vclock.Runner.Call where it must block — and reports whether the
// body is over, with the command's status: nil for success, an error for
// a failed completion. Bytes is the transfer size, for accounting only.
//
// Once Await returns, the command is the submitter's again; the device
// touches nothing of it after posting the completion. A submitter may
// therefore reuse one Command for its next Submit, or recycle it through
// a free list, the moment Await hands back its status.
type Command struct {
	Op    string // opcode label (WRITE, READ, KV_PUT, DSM_TRIM, ...)
	Bytes int
	Step  func(r *vclock.Runner) (done bool, err error)

	// Background marks host-initiated maintenance I/O (compaction reads
	// and writes, flush output) as opposed
	// to latency-sensitive foreground traffic (WAL appends, user reads).
	// It changes accounting only — the queue pair splits its admission,
	// occupancy, and latency stats by this flag so maintenance traffic
	// stops inflating the foreground depth numbers — never scheduling.
	Background bool

	// Err is the completion status, valid once Await returns.
	Err error

	qp        *QueuePair
	submitted vclock.Time
	parent    uint64 // submitter's trace context, for causal linking
	done      bool

	// The worker's progress through execStep: its stage, the status so
	// far, the body's span and start, then its service time.
	stage   uint8
	status  error
	span    trace.Span
	began   vclock.Time
	service time.Duration
}

// Config sets the queueing model's constants.
type Config struct {
	// QueueDepth is the maximum outstanding commands per queue pair; a
	// submitter blocks once it has this many in flight.
	QueueDepth int
	// Slots is the number of commands the device firmware services
	// concurrently across all queues (command-processor parallelism).
	Slots int
	// DoorbellLatency is the host-side cost of ringing the submission
	// doorbell (MMIO write + command fetch).
	DoorbellLatency time.Duration
	// CompletionLatency is the device-side cost of posting the completion
	// entry and raising the interrupt.
	CompletionLatency time.Duration
}

// DefaultConfig returns the constants used by the Cosmos+ model: QD 32
// per queue, 64 firmware command contexts, 1µs doorbell and completion
// costs. Slots caps concurrently-serviced commands, not raw parallelism
// — a command holds its slot across its whole device-side body, NAND
// waits included, so the cap must sit well above the channel/way count
// or short commands (KV puts) queue behind long transfers; the true
// bandwidth limits are the NAND array and PCIe link models underneath.
func DefaultConfig() Config {
	return Config{
		QueueDepth:        32,
		Slots:             64,
		DoorbellLatency:   time.Microsecond,
		CompletionLatency: time.Microsecond,
	}
}

// validate panics, naming the field, on a queue shape the dispatcher
// cannot run: every queue and the firmware need room for one command.
func (c Config) validate() {
	if c.QueueDepth < 1 {
		panic("nvme: Config needs QueueDepth >= 1")
	}
	if c.Slots < 1 {
		panic("nvme: Config needs Slots >= 1")
	}
}

// Dispatcher is the device-side command processor: it arbitrates across
// every registered queue pair (weighted round-robin) and executes
// commands on up to Slots concurrent workers. The dispatcher and every
// worker are transient kernel tasks — the dispatcher started when a
// command arrives at an idle device, over when all submission queues
// drain — so an idle device holds no parked runner and the simulation can
// drain naturally, and a command hands the baton to no goroutine unless
// its body asks for a call.
type Dispatcher struct {
	clk   *vclock.Clock
	cfg   Config
	slots *vclock.Semaphore

	queues  []*QueuePair
	rrNext  int // arbitration scan position
	running bool
	busyNS  int64 // cumulative service time of command bodies
	plan    *faults.Plan
	tracer  *trace.Tracer
	severed bool // power cut: no command survives until re-Attach
	// workerNames caches "nvme.cmd."+opcode, the name of a command's
	// worker, so dispatching a command builds no string.
	workerNames map[string]string
}

// workerName returns the runner name for a worker executing op.
func (d *Dispatcher) workerName(op string) string {
	name, ok := d.workerNames[op]
	if !ok {
		if d.workerNames == nil {
			d.workerNames = make(map[string]string)
		}
		name = "nvme.cmd." + op
		d.workerNames[op] = name
	}
	return name
}

// SetFaultPlan installs the fault plan every command consults; nil (the
// default) injects nothing.
func (d *Dispatcher) SetFaultPlan(p *faults.Plan) {
	d.plan = p
}

// SetTracer installs the tracer commands report to: one nvme-queue
// complete-event per command (submit → dispatch residency) and one
// nvme-exec span per command body. Nil (the default) disables it.
func (d *Dispatcher) SetTracer(tr *trace.Tracer) {
	d.tracer = tr
}

// Sever models a power cut at the current instant: every queued command
// completes immediately with faults.ErrDeviceGone, commands already
// executing complete with ErrDeviceGone when their body returns (their
// device-side effects may be partial), and every later Submit fails
// until Attach re-powers the device.
func (d *Dispatcher) Sever() {
	d.severed = true
	now := d.clk.Now()
	for _, q := range d.queues {
		for _, cmd := range q.sq {
			q.post(cmd, now, faults.ErrDeviceGone)
		}
		q.sq = q.sq[:0]
		q.notFull.Broadcast()
		q.cq.Broadcast()
	}
}

// Severed reports whether the device is currently cut off.
func (d *Dispatcher) Severed() bool {
	return d.severed
}

// NewDispatcher builds a dispatcher on clk.
func NewDispatcher(clk *vclock.Clock, cfg Config) *Dispatcher {
	cfg.validate()
	return &Dispatcher{
		clk:   clk,
		cfg:   cfg,
		slots: vclock.NewSemaphore(cfg.Slots, "nvme.slots"),
	}
}

// Attach rebinds the dispatcher to a new clock. The device hardware
// outlives a host restart, but each simulation phase runs on a fresh
// clock; a restarted host must re-attach surviving devices before
// issuing commands. The dispatcher must be idle (no commands in flight).
func (d *Dispatcher) Attach(clk *vclock.Clock) {
	if d.running {
		panic("nvme: Attach with commands in flight")
	}
	d.clk = clk
	d.severed = false // re-powered
}

// BusyNS returns the cumulative virtual time spent executing command
// bodies, summed across slots. Against elapsed time × Slots it bounds
// device utilization — the conservation check the tests assert.
func (d *Dispatcher) BusyNS() int64 {
	return d.busyNS
}

// NewQueuePair registers a new submission/completion queue pair with the
// given WRR weight (clamped to at least 1). name labels stats output.
func (d *Dispatcher) NewQueuePair(name string, weight int) *QueuePair {
	if weight < 1 {
		weight = 1
	}
	q := &QueuePair{
		name:      name,
		d:         d,
		weight:    weight,
		credit:    weight,
		depth:     d.cfg.QueueDepth,
		latency:   metrics.NewHistogram(),
		bgLatency: metrics.NewHistogram(),
	}
	q.notFull = vclock.NewCond("nvme.sq.full:" + name)
	q.cq = vclock.NewCond("nvme.cq:" + name)
	d.queues = append(d.queues, q)
	return q
}

// ensureRunning starts the dispatcher task if it is not active, so a
// command just appended is either seen by the live dispatcher's next pick
// or serviced by the task started now.
func (d *Dispatcher) ensureRunning() {
	if d.running {
		return
	}
	d.running = true
	d.clk.GoTask("nvme.dispatcher", stepDispatcher, d)
}

// stepDispatcher is the dispatcher's step (a kernel task): it hands each
// command to a worker of its own until the queues are empty, parking only
// to wait for a firmware slot. The task ends when a pick finds nothing.
func stepDispatcher(r *vclock.Runner, arg any) (done bool) {
	d := arg.(*Dispatcher)
	for {
		// Take a firmware slot first so the pick sees the freshest queue
		// state; commands posted while we waited are eligible.
		if !d.slots.AcquireStep(r, 1) {
			return false
		}
		cmd := d.pick()
		if cmd == nil {
			d.running = false
			d.slots.Release(1)
			return true
		}
		d.clk.GoTask(d.workerName(cmd.Op), execStep, cmd)
	}
}

// execStep is the step of a command's worker, a kernel task (see
// vclock.Clock.GoTask): it steps the command body, holding the firmware
// slot the dispatcher took for it, posts the completion, and reports
// whether all that is over.
func execStep(w *vclock.Runner, arg any) (done bool) {
	cmd := arg.(*Command)
	d := cmd.qp.d
	if cmd.stage == 0 {
		if tr := d.tracer; tr != nil {
			// Queue residency: doorbell ring to firmware dispatch.
			tr.Complete(w, trace.PhaseNVMeQueue, cmd.Op,
				cmd.submitted, w.Now().Sub(cmd.submitted), cmd.parent, int64(cmd.Bytes))
		}
		// Injected delay (latency spike or timeout) is queueing
		// pathology, not useful work: it is spent on the worker but
		// deliberately kept out of the busy/service accounting.
		outcome := d.plan.Decide(cmd.Op, -1)
		cmd.status, cmd.stage = outcome.Err, 1
		if d.severed {
			cmd.status = faults.ErrDeviceGone
		}
		if outcome.Delay > 0 {
			w.SleepStep(outcome.Delay)
			return false
		}
	}
	if cmd.stage == 1 {
		cmd.stage = 3 // a failed command runs no body
		if cmd.status == nil {
			cmd.span = d.tracer.BeginLinked(w, trace.PhaseNVMeExec, cmd.Op, cmd.parent)
			cmd.began = w.Now()
			cmd.stage = 2
		}
	}
	if cmd.stage == 2 {
		done, err := cmd.Step(w)
		if !done {
			return false
		}
		cmd.status = err
		cmd.service = w.Now().Sub(cmd.began)
		cmd.span.EndArg(w, int64(cmd.Bytes))
		// A cut that lands while the body runs drops the completion: the
		// work may have partially happened, but the host never hears
		// success.
		if d.severed {
			cmd.status = faults.ErrDeviceGone
		}
		cmd.stage = 3
	}
	if cmd.stage == 3 {
		d.slots.Release(1)
		cmd.stage = 4
		if d.cfg.CompletionLatency > 0 {
			w.SleepStep(d.cfg.CompletionLatency)
			return false
		}
	}
	d.busyNS += int64(cmd.service)
	err := cmd.status
	cmd.stage, cmd.status, cmd.span, cmd.service = 0, nil, trace.Span{}, 0
	cmd.qp.complete(cmd, w.Now(), err)
	return true
}

// pick implements weighted round-robin: each queue gets up to
// weight consecutive grants per round; when every backlogged queue has
// exhausted its credit, all credits replenish and a new round begins.
func (d *Dispatcher) pick() *Command {
	n := len(d.queues)
	if n == 0 {
		return nil
	}
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < n; i++ {
			q := d.queues[(d.rrNext+i)%n]
			if len(q.sq) == 0 || q.credit <= 0 {
				continue
			}
			q.credit--
			if q.credit <= 0 {
				d.rrNext = (d.rrNext + i + 1) % n // burst spent: move on
			} else {
				d.rrNext = (d.rrNext + i) % n // stay for the rest of the burst
			}
			cmd := q.sq[0]
			copy(q.sq, q.sq[1:])
			q.sq[len(q.sq)-1] = nil
			q.sq = q.sq[:len(q.sq)-1]
			return cmd
		}
		// No backlogged queue has credit left: replenish and rescan once.
		backlogged := false
		for _, q := range d.queues {
			q.credit = q.weight
			if len(q.sq) > 0 {
				backlogged = true
			}
		}
		if !backlogged {
			return nil
		}
	}
	return nil
}

// QueuePair is one paired submission/completion queue. Submit posts a
// command (blocking at full depth); Await parks until a specific command
// completes; Do is the synchronous convenience.
type QueuePair struct {
	name   string
	d      *Dispatcher
	weight int
	depth  int

	credit      int
	sq          []*Command
	outstanding int
	notFull     *vclock.Cond
	cq          *vclock.Cond

	// Stats. The bg* counters cover commands submitted with Background set; the
	// unprefixed counters remain totals (foreground = total − bg), except
	// latency, which is foreground-only and merged with bgLatency for the
	// total view in Stats.
	submitted        int64
	completed        int64
	errors           int64
	maxOutstanding   int
	occupancyNS      int64 // ∫ outstanding dt
	bgSubmitted      int64
	bgCompleted      int64
	bgErrors         int64
	bgOutstanding    int
	bgMaxOutstanding int
	bgOccupancyNS    int64 // ∫ bgOutstanding dt
	lastChange       vclock.Time
	latency          *metrics.Histogram
	bgLatency        *metrics.Histogram
}

// account folds the time spent at the current outstanding levels
// into the occupancy integrals. Called on every level change, before the
// level is mutated.
func (q *QueuePair) account(now vclock.Time) {
	if now > q.lastChange {
		dt := int64(now.Sub(q.lastChange))
		q.occupancyNS += dt * int64(q.outstanding)
		q.bgOccupancyNS += dt * int64(q.bgOutstanding)
	}
	q.lastChange = now
}

// Submit rings the doorbell and posts cmd, parking r while the queue is
// at full depth. It returns once the command is queued, not completed;
// pair with Await (or use Do).
func (q *QueuePair) Submit(r *vclock.Runner, cmd *Command) {
	cmd.parent = r.TraceCtx()
	if q.d.cfg.DoorbellLatency > 0 {
		r.Sleep(q.d.cfg.DoorbellLatency)
	}
	q.notFull.WaitUntil(r, sqHasRoom, q)
	now := r.Now()
	cmd.qp, cmd.submitted, cmd.done = q, now, false
	q.account(now)
	q.outstanding++
	q.submitted++
	if cmd.Background {
		q.bgOutstanding++
		q.bgSubmitted++
	}
	if q.d.severed {
		// Severed device: the command never reaches hardware. Complete it
		// immediately with ErrDeviceGone so submitters cannot deadlock on
		// a queue nothing will ever drain.
		q.post(cmd, now, faults.ErrDeviceGone)
		return
	}
	q.maxOutstanding = max(q.maxOutstanding, q.outstanding)
	if cmd.Background {
		q.bgMaxOutstanding = max(q.bgMaxOutstanding, q.bgOutstanding)
	}
	q.sq = append(q.sq, cmd)
	q.d.ensureRunning()
}

func sqHasRoom(qp any) bool {
	q := qp.(*QueuePair)
	return q.outstanding < q.depth || q.d.severed
}

// Await parks r until cmd (previously Submitted on this queue) completes
// and returns the command's completion status.
func (q *QueuePair) Await(r *vclock.Runner, cmd *Command) error {
	q.cq.WaitUntil(r, commandDone, cmd)
	return cmd.Err
}

func commandDone(cmd any) bool { return cmd.(*Command).done }

// Do submits cmd and waits for its completion — the synchronous path for
// callers with nothing to overlap.
func (q *QueuePair) Do(r *vclock.Runner, cmd *Command) error {
	q.Submit(r, cmd)
	return q.Await(r, cmd)
}

// complete posts cmd's completion: it records the command latency, posts
// its status and wakes blocked submitters and awaiters.
func (q *QueuePair) complete(cmd *Command, now vclock.Time, err error) {
	if lat := time.Duration(now.Sub(cmd.submitted)); cmd.Background {
		q.bgLatency.Observe(lat)
	} else {
		q.latency.Observe(lat)
	}
	q.post(cmd, now, err)
	q.notFull.Signal()
	q.cq.Broadcast()
}

// post books cmd's completion with status err — a depth unit freed, and a
// failure if err is set — and then publishes it: an awaiter that finds
// done set may reuse the command at once, so nothing of it is read after.
func (q *QueuePair) post(cmd *Command, now vclock.Time, err error) {
	bg := cmd.Background
	q.account(now)
	q.outstanding--
	q.completed++
	if bg {
		q.bgOutstanding--
		q.bgCompleted++
	}
	if err != nil {
		q.errors++
		if bg {
			q.bgErrors++
		}
	}
	cmd.Err, cmd.done = err, true
}

// QueueStats is a snapshot of one queue pair's counters.
type QueueStats struct {
	Name      string
	Depth     int
	Weight    int
	Submitted int64
	Completed int64
	// Errors counts completions with a non-nil status (injected faults,
	// severed-device drops).
	Errors         int64
	Outstanding    int
	MaxOutstanding int
	// MeanOutstanding is the time-weighted average queue occupancy from
	// the queue's first submit to now.
	MeanOutstanding float64
	// Latency is the submit-to-completion histogram over every command,
	// a snapshot.
	Latency *metrics.Histogram

	// Background split: commands submitted with Command.Background set
	// (compaction, flush). The unprefixed counters
	// above are totals, so foreground = total − Bg; FgLatency and
	// BgLatency are the per-class latency histograms whose union is
	// Latency.
	BgSubmitted       int64
	BgCompleted       int64
	BgErrors          int64
	BgOutstanding     int
	BgMaxOutstanding  int
	MeanBgOutstanding float64
	FgLatency         *metrics.Histogram
	BgLatency         *metrics.Histogram
}

// String formats a one-line summary for Stats output.
func (s QueueStats) String() string {
	line := fmt.Sprintf("%s: qd=%d w=%d submitted=%d errors=%d inflight=%d max=%d mean-occ=%.2f lat{%s}",
		s.Name, s.Depth, s.Weight, s.Submitted, s.Errors, s.Outstanding, s.MaxOutstanding, s.MeanOutstanding, s.Latency)
	if s.BgSubmitted > 0 {
		line += fmt.Sprintf(" bg{submitted=%d mean-occ=%.2f lat{%s}}",
			s.BgSubmitted, s.MeanBgOutstanding, s.BgLatency)
	}
	return line
}

// Stats snapshots the queue's counters at virtual time now.
func (q *QueuePair) Stats(now vclock.Time) QueueStats {
	fgLat := metrics.NewHistogram()
	fgLat.Merge(q.latency)
	bgLat := metrics.NewHistogram()
	bgLat.Merge(q.bgLatency)
	lat := metrics.NewHistogram()
	lat.Merge(fgLat)
	lat.Merge(bgLat)
	s := QueueStats{
		Name:             q.name,
		Depth:            q.depth,
		Weight:           q.weight,
		Submitted:        q.submitted,
		Completed:        q.completed,
		Errors:           q.errors,
		Outstanding:      q.outstanding,
		MaxOutstanding:   q.maxOutstanding,
		Latency:          lat,
		BgSubmitted:      q.bgSubmitted,
		BgCompleted:      q.bgCompleted,
		BgErrors:         q.bgErrors,
		BgOutstanding:    q.bgOutstanding,
		BgMaxOutstanding: q.bgMaxOutstanding,
		FgLatency:        fgLat,
		BgLatency:        bgLat,
	}
	occ, bgOcc := q.occupancyNS, q.bgOccupancyNS
	if now > q.lastChange {
		dt := int64(now.Sub(q.lastChange))
		occ += dt * int64(q.outstanding)
		bgOcc += dt * int64(q.bgOutstanding)
	}
	if q.submitted > 0 && now > 0 {
		s.MeanOutstanding = float64(occ) / float64(now)
		s.MeanBgOutstanding = float64(bgOcc) / float64(now)
	}
	return s
}

// Stats snapshots every registered queue pair at virtual time now, in
// registration order.
func (d *Dispatcher) Stats(now vclock.Time) []QueueStats {
	out := make([]QueueStats, len(d.queues))
	for i, q := range d.queues {
		out[i] = q.Stats(now)
	}
	return out
}
