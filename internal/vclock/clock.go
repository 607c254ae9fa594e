// Package vclock implements a conservative virtual-time kernel for
// discrete-event simulation with real goroutines.
//
// Simulation actors ("runners") are ordinary goroutines registered with a
// Clock. Virtual time advances only when every registered runner is parked
// in a clock-aware primitive (Sleep, Cond.Wait, Semaphore.Acquire,
// Queue.Pop, ...). When the last runner parks, the clock jumps to the
// earliest pending timer deadline and wakes the runners due at that instant.
// This lets engine code (flush threads, compaction workers, device channel
// servers) be written as natural blocking goroutine code while a simulated
// 600-second experiment completes in real milliseconds, deterministically
// enough for reproducible experiment shapes.
//
// The one contract runners must obey: never block indefinitely on a raw Go
// primitive (channel receive, sync.Mutex held across a park, ...). Short
// critical sections under plain mutexes are fine — the clock simply does not
// advance while any runner is runnable. Indefinite waits must go through the
// clock-aware primitives in this package, so the kernel can observe them and
// either advance time or report a deadlock.
package vclock

import (
	"container/heap"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration aliases time.Duration; virtual durations use the same unit.
type Duration = time.Duration

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

func (t Time) String() string { return Duration(t).String() }

// Clock is the virtual-time kernel. The zero value is not usable; create
// one with New.
type Clock struct {
	mu      sync.Mutex
	now     Time
	seq     uint64 // tie-break for deterministic wake ordering
	nextID  uint64 // runner ids, assigned in registration order
	active  int    // registered runners currently runnable
	total   int    // registered runners alive
	timers  timerHeap
	parked  map[*Runner]string // runners parked on conditions (not timers), with a state label
	done    chan struct{}      // closed when the last runner exits
	stopped bool
	suspect uint64 // deadlock suspicions raised so far (confirmDeadlock)

	// OnDeadlock, if non-nil, is invoked instead of panicking when every
	// runner has stayed parked on a condition with no timer pending for
	// deadlockGrace. Tests use it.
	OnDeadlock func(report string)
}

// New returns a Clock at virtual time zero.
func New() *Clock {
	return &Clock{
		parked: make(map[*Runner]string),
		done:   make(chan struct{}),
	}
}

// Now returns the current virtual time.
func (c *Clock) Now() Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Runner is the handle a simulation goroutine uses to interact with its
// Clock. Each Runner belongs to exactly one goroutine.
type Runner struct {
	clock *Clock
	name  string
	id    uint64
	wake  chan struct{}
	// gen counts condition parks (guarded by clock.mu). A conditional
	// timer records the generation it backstops; if the runner has since
	// been signalled and parked again, the stale timer's generation no
	// longer matches and it must not fire.
	gen uint64
	// traceCtx is a per-runner scratch slot owned by the tracing layer:
	// the id of the innermost open trace span on this runner, so child
	// spans (and cross-runner handoffs such as NVMe commands) can record
	// a causal parent without any shared state. Only the runner's own
	// goroutine reads or writes it.
	traceCtx uint64
}

// Name returns the label the runner was created with.
func (r *Runner) Name() string { return r.name }

// ID returns the runner's clock-unique id, assigned in registration
// order starting at 1. Tracing uses it as a stable "thread" lane.
func (r *Runner) ID() uint64 { return r.id }

// TraceCtx returns the runner's current trace context (0 = none).
func (r *Runner) TraceCtx() uint64 { return r.traceCtx }

// SetTraceCtx replaces the runner's trace context. Must only be called
// from the runner's own goroutine.
func (r *Runner) SetTraceCtx(ctx uint64) { r.traceCtx = ctx }

// Clock returns the clock this runner is registered with.
func (r *Runner) Clock() *Clock { return r.clock }

// Now returns the current virtual time.
func (r *Runner) Now() Time { return r.clock.Now() }

// Go starts fn as a registered runner goroutine. The runner is
// automatically unregistered when fn returns.
func (c *Clock) Go(name string, fn func(r *Runner)) {
	r := c.register(name)
	go func() {
		defer c.unregister(r)
		fn(r)
	}()
}

// register adds a runnable runner.
func (c *Clock) register(name string) *Runner {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.total++
	c.active++
	c.nextID++
	return &Runner{clock: c, name: name, id: c.nextID, wake: make(chan struct{}, 1)}
}

func (c *Clock) unregister(r *Runner) {
	c.mu.Lock()
	c.total--
	c.active--
	last := c.total == 0
	if !last {
		c.maybeAdvanceLocked()
	}
	c.mu.Unlock()
	if last {
		close(c.done)
	}
}

// Wait blocks the calling (non-runner) goroutine until every runner started
// with Go has returned. It is the idiomatic way for a test or main to join
// the simulation.
func (c *Clock) Wait() { <-c.done }

// Hold pins virtual time until the returned release function is called.
// Constructors that start housekeeping runners (detectors, rollback
// managers — all parked on periodic timers) take a hold so the ordinary
// goroutine finishing setup, which the clock cannot see, gets to register
// its first real runner before those timers free-run virtual time
// arbitrarily far ahead. Release is idempotent; call it after the first
// real runner is registered (Go registers synchronously, so right after
// Go returns is safe).
func (c *Clock) Hold() (release func()) {
	c.mu.Lock()
	c.active++
	c.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			c.mu.Lock()
			c.active--
			c.maybeAdvanceLocked()
			c.mu.Unlock()
		})
	}
}

// Sleep parks r for virtual duration d. A non-positive d still yields a
// full park/wake cycle at the current instant, which serializes with other
// same-instant events deterministically.
func (r *Runner) Sleep(d Duration) {
	c := r.clock
	c.mu.Lock()
	if d < 0 {
		d = 0
	}
	c.seq++
	heap.Push(&c.timers, timer{at: c.now.Add(d), seq: c.seq, r: r})
	c.active--
	c.maybeAdvanceLocked()
	c.mu.Unlock()
	<-r.wake
}

// SleepUntil parks r until virtual time t (or returns immediately at/after t
// in the sense of a zero-length sleep).
func (r *Runner) SleepUntil(t Time) {
	c := r.clock
	c.mu.Lock()
	at := t
	if at < c.now {
		at = c.now
	}
	c.seq++
	heap.Push(&c.timers, timer{at: at, seq: c.seq, r: r})
	c.active--
	c.maybeAdvanceLocked()
	c.mu.Unlock()
	<-r.wake
}

// parkOn marks r parked on a condition described by label. The caller must
// arrange for wakeParked(r) to be called eventually. Must not hold c.mu.
func (c *Clock) parkOn(r *Runner, label string) {
	c.mu.Lock()
	r.gen++
	c.parked[r] = label
	c.active--
	c.maybeAdvanceLocked()
	c.mu.Unlock()
}

// parkOnTimed is parkOn with a timeout backstop: a conditional timer is
// pushed alongside the condition park, and whichever fires first wins.
// The runner is woken exactly once — the timer pop skips runners no
// longer in the parked map, and wakeParkedIfPresent skips runners the
// timer already woke. The caller still blocks on <-r.wake itself (so it
// can interleave its own bookkeeping, as Cond.Wait does with parkOn).
func (c *Clock) parkOnTimed(r *Runner, label string, d Duration) {
	c.mu.Lock()
	if d < 0 {
		d = 0
	}
	r.gen++
	c.seq++
	heap.Push(&c.timers, timer{at: c.now.Add(d), seq: c.seq, r: r, cond: true, gen: r.gen})
	c.parked[r] = label
	c.active--
	c.maybeAdvanceLocked()
	c.mu.Unlock()
}

// wakeParked makes a condition-parked runner runnable again. It is safe to
// call from any goroutine, runner or not. The target must currently be
// parked via parkOn.
func (c *Clock) wakeParked(r *Runner) {
	c.mu.Lock()
	if _, ok := c.parked[r]; !ok {
		c.mu.Unlock()
		panic("vclock: wakeParked on runner that is not condition-parked: " + r.name)
	}
	delete(c.parked, r)
	c.active++
	c.mu.Unlock()
	r.wake <- struct{}{}
}

// wakeParkedIfPresent is wakeParked for condition parks that race a
// timeout: when the runner's conditional timer fired first, the runner is
// no longer in the parked map and the call is a no-op. It reports whether
// it woke the runner.
func (c *Clock) wakeParkedIfPresent(r *Runner) bool {
	c.mu.Lock()
	if _, ok := c.parked[r]; !ok {
		c.mu.Unlock()
		return false
	}
	delete(c.parked, r)
	c.active++
	c.mu.Unlock()
	r.wake <- struct{}{}
	return true
}

// maybeAdvanceLocked advances virtual time if no runner is runnable.
// Called with c.mu held.
func (c *Clock) maybeAdvanceLocked() {
	if c.active > 0 || c.stopped {
		return
	}
	for {
		if c.timers.Len() == 0 {
			if c.total == 0 {
				return // simulation drained
			}
			// Every runner is parked and nothing is due: a deadlock, unless
			// a goroutine the clock cannot see (a test or main between
			// Open and its first Go, say) is about to register a runner or
			// signal one. Give it deadlockGrace of wall time to do so.
			c.suspect++
			gen := c.suspect
			time.AfterFunc(deadlockGrace, func() { c.confirmDeadlock(gen) })
			return
		}
		// Jump to the earliest deadline and wake every timer due at it, in
		// seq order for determinism. Conditional timers whose runner was
		// already woken through its condition are stale: drop them without
		// waking, and keep advancing if the whole batch was stale.
		at := c.timers[0].at
		c.now = at
		woke := 0
		for c.timers.Len() > 0 && c.timers[0].at == at {
			t := heap.Pop(&c.timers).(timer)
			if t.cond {
				// Stale if the runner was signalled (left the parked map) or
				// was signalled and has since parked again (generation moved
				// on) — either way the timeout lost its race.
				if _, ok := c.parked[t.r]; !ok || t.r.gen != t.gen {
					continue
				}
				delete(c.parked, t.r)
			}
			c.active++
			woke++
			t.r.wake <- struct{}{}
		}
		if woke > 0 {
			return
		}
	}
}

// deadlockGrace is how long, in wall time, an all-parked clock with no
// pending timer may sit before it is reported as deadlocked.
const deadlockGrace = 200 * time.Millisecond

// confirmDeadlock reports suspicion gen if the clock has not moved since:
// any later transition to "nothing runnable" raised a newer suspicion
// (or drained the simulation), and any wake or registration left a
// runner active.
func (c *Clock) confirmDeadlock(gen uint64) {
	c.mu.Lock()
	if gen != c.suspect || c.active > 0 || c.total == 0 || c.stopped {
		c.mu.Unlock()
		return
	}
	report := c.deadlockReportLocked()
	c.stopped = true
	// Report without the lock: the handler may inspect the clock, and a
	// panic must not leave c.mu held under goroutines that still need it.
	c.mu.Unlock()
	if h := c.OnDeadlock; h != nil {
		h(report)
		return
	}
	panic(report)
}

func (c *Clock) deadlockReportLocked() string {
	s := fmt.Sprintf("vclock: deadlock at t=%v: all %d runners parked with no pending timer; parked on:", c.now, c.total)
	labels := make([]string, 0, len(c.parked))
	for r, l := range c.parked {
		labels = append(labels, fmt.Sprintf("\n  %s: %s", r.name, l))
	}
	sort.Strings(labels)
	for _, l := range labels {
		s += l
	}
	return s
}

type timer struct {
	at   Time
	seq  uint64
	r    *Runner
	cond bool   // timeout backstop for a condition park (parkOnTimed)
	gen  uint64 // park generation the backstop belongs to (cond only)
}

type timerHeap []timer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x interface{}) { *h = append(*h, x.(timer)) }
func (h *timerHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
