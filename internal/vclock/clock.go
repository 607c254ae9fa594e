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
// 600-second experiment completes in real milliseconds. When each runner
// wakes is deterministic; the order in which runners woken at one instant
// then run is the Go scheduler's (see Semaphore), so a seed reproduces an
// experiment's shape, not its bytes.
//
// Runners are cheap to start: a goroutine whose function returned stays
// behind, invisible to the clock, and the next Go hands it the new
// function (see Clock.Go). They all exit when the simulation drains.
//
// The one contract runners must obey: never block indefinitely on a raw Go
// primitive (channel receive, sync.Mutex held across a park, ...). Short
// critical sections under plain mutexes are fine — the clock simply does not
// advance while any runner is runnable. Indefinite waits must go through the
// clock-aware primitives in this package, so the kernel can observe them and
// either advance time or report a deadlock.
package vclock

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
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
	now     atomic.Int64 // Time; stored under mu, loaded without it
	seq     uint64       // tie-break for deterministic wake ordering
	nextID  uint64       // runner ids, assigned in registration order
	active  int          // registered runners currently runnable
	total   int          // registered runners alive
	timers  timerHeap
	runners *Runner       // live runners, linked through Runner.next/prev (deadlock report)
	idle    *Runner       // returned runners awaiting reuse, newest first, linked through Runner.next
	done    chan struct{} // closed when the last runner exits
	stopped bool
	suspect uint64 // deadlock suspicions raised so far (confirmDeadlock)
	stats   Stats

	// OnDeadlock, if non-nil, is invoked instead of panicking when every
	// runner has stayed parked on a condition with no timer pending for
	// deadlockGrace. Tests use it.
	OnDeadlock func(report string)
}

// New returns a Clock at virtual time zero.
func New() *Clock {
	return &Clock{done: make(chan struct{})}
}

// Now returns the current virtual time.
func (c *Clock) Now() Time { return Time(c.now.Load()) }

// Stats are the kernel's cumulative event counts: what a simulation costs
// the host is, to first order, how many of these it causes.
type Stats struct {
	Parks      uint64 // runners parked, on a timer or on a condition
	TimerWakes uint64 // wakes delivered by the timer heap
	CondWakes  uint64 // wakes delivered through a condition (Signal, Broadcast, Release, Set, ...)
	Spawns     uint64 // runners started on a new goroutine
	Reuses     uint64 // runners started on the goroutine of a runner that had returned
	// SemWaits counts Semaphore.Acquire calls that found too few units and
	// had to park; SemParks counts the parks they took, so SemParks/SemWaits
	// is what one contended admission costs (1 with no lost race).
	SemWaits uint64
	SemParks uint64
}

// Stats returns a snapshot of the kernel's event counts.
func (c *Clock) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Runner is the handle a simulation goroutine uses to interact with its
// Clock. Each Runner belongs to exactly one goroutine, and each goroutine
// serves one runner after another: between two of them the Runner is off
// the clock's books and on its free list.
type Runner struct {
	clock *Clock
	name  string
	id    uint64
	wake  chan struct{}
	// fn and arg are the function this life of the runner executes; both
	// are nil while the runner idles on the free list. Written under
	// clock.mu, read by the runner's goroutine after the wake that follows.
	fn  func(r *Runner, arg any)
	arg any
	// gen counts condition parks (guarded by clock.mu). A conditional
	// timer records the generation it backstops; if the runner has since
	// been signalled and parked again, the stale timer's generation no
	// longer matches and it must not fire. It keeps counting across the
	// runner's lives, so a timer left behind by an earlier one stays stale.
	gen uint64
	// parked is set while the runner is parked on a condition (not a plain
	// timer) and label says which, for the deadlock report. next and prev
	// link the clock's live runners (next alone, its free list). All four
	// are guarded by clock.mu.
	parked     bool
	label      string
	next, prev *Runner
	// sem is the runner's place in the waiter list of the Semaphore it is
	// acquiring, guarded by that semaphore's mutex.
	sem semWait
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

// Go starts fn as a registered runner. The runner is automatically
// unregistered when fn returns, and its goroutine, Runner and wake channel
// then serve the next Go instead of being made anew: fn must not keep r
// past its return.
func (c *Clock) Go(name string, fn func(r *Runner)) {
	c.GoWith(name, callFunc, fn)
}

func callFunc(r *Runner, fn any) { fn.(func(r *Runner))(r) }

// GoWith is Go for a function that takes its state as an argument instead
// of capturing it: with a package-level fn and a pointer for arg, starting
// a runner allocates nothing, where Go costs its caller a closure.
func (c *Clock) GoWith(name string, fn func(r *Runner, arg any), arg any) {
	r, reused := c.register(name, fn, arg)
	if reused {
		// Like the go statement, this leaves the runner next in line on the
		// caller's P, so reuse does not change who runs when.
		r.wake <- struct{}{}
	} else {
		go r.serve()
	}
}

// register adds a runnable runner that will execute fn(arg), taken from
// the free list if a runner has returned before. It happens here, not on
// the runner's goroutine: virtual time must not move between Go returning
// and fn's first park.
func (c *Clock) register(name string, fn func(r *Runner, arg any), arg any) (r *Runner, reused bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r = c.idle; r != nil {
		c.idle = r.next
		c.stats.Reuses++
		reused = true
	} else {
		r = &Runner{clock: c, wake: make(chan struct{}, 1)}
		c.stats.Spawns++
	}
	c.total++
	c.active++
	c.nextID++
	r.name, r.id, r.fn, r.arg = name, c.nextID, fn, arg
	r.traceCtx, r.parked, r.label = 0, false, ""
	r.prev, r.next = nil, c.runners
	if r.next != nil {
		r.next.prev = r
	}
	c.runners = r
	return r, reused
}

// serve is a runner goroutine: it runs one function after another, idling
// between them on its wake channel — a plain receive, which the clock does
// not count, ended by the next Go or by the simulation draining.
func (r *Runner) serve() {
	for r.live() {
		if <-r.wake; r.fn == nil {
			return // drained
		}
	}
}

// live runs the function r was started for and unregisters r however the
// function leaves — by returning, by panicking or through runtime.Goexit
// (t.Fatal on a runner). It reports whether r went on the free list, which
// it does only after a return: otherwise this goroutine is on its way out.
func (r *Runner) live() (idle bool) {
	returned := false
	defer func() { idle = r.clock.unregister(r, returned) }()
	r.fn(r, r.arg)
	returned = true
	return
}

// unregister takes r off the clock's books and, if reusable, puts it on
// the free list. It reports whether it did: the last runner to leave
// drains the simulation instead, sending every idle runner home.
func (c *Clock) unregister(r *Runner, reusable bool) (idle bool) {
	c.mu.Lock()
	if r.prev != nil {
		r.prev.next = r.next
	} else {
		c.runners = r.next
	}
	if r.next != nil {
		r.next.prev = r.prev
	}
	r.next, r.prev = nil, nil
	r.fn, r.arg = nil, nil // an idle runner must not pin its last life's state
	c.total--
	c.active--
	if c.total > 0 {
		if reusable {
			r.next, c.idle = c.idle, r
		}
		c.maybeAdvanceLocked()
		c.mu.Unlock()
		return reusable
	}
	home := c.idle
	c.idle = nil
	c.mu.Unlock()
	for home != nil {
		next := home.next
		home.next = nil
		home.wake <- struct{}{} // fn is nil: serve returns
		home = next
	}
	close(c.done)
	return false
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
	c.sleepLocked(r, c.Now().Add(d))
}

// sleepLocked parks r on a plain timer due at at. Called with c.mu held;
// releases it.
func (c *Clock) sleepLocked(r *Runner, at Time) {
	c.seq++
	c.timers.push(timer{at: at, seq: c.seq, r: r})
	c.stats.Parks++
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
	if now := c.Now(); t < now {
		t = now
	}
	c.sleepLocked(r, t)
}

// parkOn marks r parked on a condition described by label. The caller must
// arrange for wakeParked(r) to be called eventually. Must not hold c.mu.
func (c *Clock) parkOn(r *Runner, label string) {
	c.mu.Lock()
	c.parkOnLocked(r, label)
}

// parkOnLocked is parkOn for a caller that already holds c.mu (to count
// what it parks for); it releases it.
func (c *Clock) parkOnLocked(r *Runner, label string) {
	r.gen++
	r.parked, r.label = true, label
	c.stats.Parks++
	c.active--
	c.maybeAdvanceLocked()
	c.mu.Unlock()
}

// parkOnTimed is parkOn with a timeout backstop: a conditional timer is
// pushed alongside the condition park, and whichever fires first wins.
// The runner is woken exactly once — the timer pop skips runners no
// longer parked, and wakeParkedIfPresent skips runners the timer already
// woke. The caller still blocks on <-r.wake itself (so it can interleave
// its own bookkeeping, as Cond.Wait does with parkOn).
func (c *Clock) parkOnTimed(r *Runner, label string, d Duration) {
	c.mu.Lock()
	if d < 0 {
		d = 0
	}
	r.gen++
	c.seq++
	c.timers.push(timer{at: c.Now().Add(d), seq: c.seq, r: r, cond: true, gen: r.gen})
	r.parked, r.label = true, label
	c.stats.Parks++
	c.active--
	c.maybeAdvanceLocked()
	c.mu.Unlock()
}

// wakeParked makes a condition-parked runner runnable again. It is safe to
// call from any goroutine, runner or not. The target must currently be
// parked via parkOn.
func (c *Clock) wakeParked(r *Runner) {
	if !c.wakeParkedIfPresent(r) {
		panic("vclock: wakeParked on runner that is not condition-parked: " + r.name)
	}
}

// wakeParkedIfPresent is wakeParked for condition parks that race a
// timeout: when the runner's conditional timer fired first, the runner is
// no longer parked and the call is a no-op. It reports whether it woke
// the runner.
func (c *Clock) wakeParkedIfPresent(r *Runner) bool {
	c.mu.Lock()
	if !r.parked {
		c.mu.Unlock()
		return false
	}
	r.parked = false
	c.active++
	c.stats.CondWakes++
	c.mu.Unlock()
	r.wake <- struct{}{}
	return true
}

// wakeParkedAt turns r's condition park into a plain timer due at at: r
// stops being condition-parked now and is woken by the timer heap, in the
// same (at, seq) order as a runner that called SleepUntil(at) at this
// moment — the seq is taken here, where that Sleep's would be. An at that
// is not in the future wakes r now. The target must be parked via parkOn.
func (c *Clock) wakeParkedAt(r *Runner, at Time) {
	c.mu.Lock()
	if at <= c.Now() {
		c.mu.Unlock()
		c.wakeParked(r)
		return
	}
	if !r.parked {
		c.mu.Unlock()
		panic("vclock: wakeParkedAt on runner that is not condition-parked: " + r.name)
	}
	r.parked = false
	c.seq++
	c.timers.push(timer{at: at, seq: c.seq, r: r})
	// The caller is usually a runner, so this is a no-op; a goroutine the
	// clock cannot see may have just armed the only thing left to wait for.
	c.maybeAdvanceLocked()
	c.mu.Unlock()
}

// maybeAdvanceLocked advances virtual time if no runner is runnable.
// Called with c.mu held.
func (c *Clock) maybeAdvanceLocked() {
	if c.active > 0 || c.stopped {
		return
	}
	for {
		if len(c.timers) == 0 {
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
		c.now.Store(int64(at))
		woke := 0
		for len(c.timers) > 0 && c.timers[0].at == at {
			t := c.timers.pop()
			if t.cond {
				// Stale if the runner was signalled (no longer parked) or was
				// signalled and has since parked again (generation moved on)
				// — either way the timeout lost its race.
				if !t.r.parked || t.r.gen != t.gen {
					continue
				}
				t.r.parked = false
			}
			c.active++
			woke++
			t.r.wake <- struct{}{}
		}
		c.stats.TimerWakes += uint64(woke)
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
	s := fmt.Sprintf("vclock: deadlock at t=%v: all %d runners parked with no pending timer; parked on:", c.Now(), c.total)
	var labels []string
	for r := c.runners; r != nil; r = r.next {
		if r.parked {
			labels = append(labels, fmt.Sprintf("\n  %s: %s", r.name, r.label))
		}
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

// before orders timers by (at, seq). seq is unique, so the order is total
// and the heap's pop order does not depend on its internal layout.
func (t *timer) before(u *timer) bool {
	if t.at != u.at {
		return t.at < u.at
	}
	return t.seq < u.seq
}

// timerHeap is a binary min-heap of timers, earliest first.
type timerHeap []timer

func (h *timerHeap) push(t timer) {
	s := append(*h, t)
	*h = s
	// Sift the hole at the end up to where t belongs.
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !t.before(&s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = t
}

// pop removes and returns the earliest timer. The vacated slot is zeroed
// so the backing array does not keep an exited runner reachable.
func (h *timerHeap) pop() timer {
	s := *h
	n := len(s) - 1
	top, last := s[0], s[n]
	s[n] = timer{}
	s = s[:n]
	*h = s
	if n == 0 {
		return top
	}
	// Sift the hole at the root down to where the former last element belongs.
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if child+1 < n && s[child+1].before(&s[child]) {
			child++
		}
		if !s[child].before(&last) {
			break
		}
		s[i] = s[child]
		i = child
	}
	s[i] = last
	return top
}
