// Package vclock implements a conservative virtual-time kernel for
// discrete-event simulation with real goroutines.
//
// Simulation actors ("runners") are ordinary goroutines registered with a
// Clock, and exactly one of them runs at a time: the one holding the
// clock's baton. It runs until it parks in a clock-aware primitive (Sleep,
// Cond.Wait, Semaphore.Acquire, Queue.Pop, ...) or returns, and then the
// baton passes to the next runnable runner. When no runner is runnable,
// the clock jumps to the earliest pending timer deadline and makes the
// runners due at that instant runnable. This lets engine code (flush
// threads, compaction workers, device channel servers) be written as
// natural blocking goroutine code while a simulated 600-second experiment
// completes in real milliseconds, and it makes a run a function of its
// program alone: the same seed gives the same events in the same order,
// whatever the number of host cores.
//
// The run-order rule. A runner becomes runnable when Go starts it, when a
// primitive wakes it, or when its timer comes due; timers due at one
// instant come due in (at, seq) order, seq being the order they were
// armed. The runner made runnable last runs next. The runner it displaces
// from that place joins the back of a FIFO run queue, whose front runs
// when nobody holds the place. Time advances only when both are empty, and
// a runner whose own park let it advance keeps the baton if its timer is
// among those due. This is the order in which Go's scheduler runs
// goroutines that hand off through channels on a single processor, the
// order Semaphore's admission rules were written against.
//
// The caller is the first runner: the goroutine that calls New holds the
// baton until it calls Wait. So no runner runs, and virtual time stays at
// zero, while it sets up and starts the simulation's runners, however long
// that takes in wall time. Go may be called from outside a runner only
// before Wait; from then on, only runners start runners.
//
// Runners are cheap to start: a goroutine whose function returned stays
// behind, invisible to the clock, and the next Go hands it the new
// function (see Clock.Go). They all exit when the simulation drains.
//
// The contract runners must obey: only the baton holder — a runner, or
// New's caller before Wait — may call into a Clock or the primitives of
// this package, and it must never block on a raw Go primitive (a channel
// receive, a mutex, ...), since the runner it waits for cannot run until
// it parks. Nothing a clock's runners reach takes a lock: everything they
// share belongs to whoever holds the baton, so a runner's steps between
// two parks are atomic to every other runner, and a Cond has no lock to
// release. Once Wait has been called, a park that leaves no runner
// runnable and no timer pending is a deadlock, reported on the spot (see
// OnDeadlock).
package vclock

import (
	"fmt"
	"sort"
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
	now     Time
	seq     uint64 // tie-break for deterministic wake ordering
	nextID  uint64 // runner ids, assigned in registration order
	total   int    // runners alive, New's caller among them until it waits
	holds   int    // Hold calls not yet released: time may not advance
	waited  bool   // New's caller has called Wait and left the count
	timers  timerHeap
	newest  *Runner       // the runner made runnable last: it runs next
	runq    Ring[*Runner] // runnable runners displaced from newest, oldest first
	runners *Runner       // live runners, linked through Runner.next/prev (deadlock report)
	idle    *Runner       // returned runners awaiting reuse, newest first, linked through Runner.next
	done    chan struct{} // closed when the last runner exits
	stats   Stats

	// OnDeadlock, if non-nil, is invoked instead of panicking when, after
	// Wait, every runner is parked on a condition with no timer pending.
	// It runs on a goroutine of its own, called the instant the last
	// runnable runner parks. Tests use it.
	OnDeadlock func(report string)
}

// New returns a Clock at virtual time zero whose first runner is the
// calling goroutine: nothing runs, and time cannot move, until it calls
// Wait.
func New() *Clock {
	return &Clock{done: make(chan struct{}), total: 1}
}

// Now returns the current virtual time.
func (c *Clock) Now() Time { return c.now }

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
func (c *Clock) Stats() Stats { return c.stats }

// Runner is the handle a simulation goroutine uses to interact with its
// Clock. Each Runner belongs to exactly one goroutine, and each goroutine
// serves one runner after another: between two of them the Runner is off
// the clock's books and on its free list.
type Runner struct {
	clock *Clock
	name  string
	id    uint64
	wake  chan struct{} // the baton, handed to this runner
	// fn and arg are the function this life of the runner executes; both
	// are nil while the runner idles on the free list.
	fn  func(r *Runner, arg any)
	arg any
	// gen counts condition parks. A conditional timer records the
	// generation it backstops; if the runner has since been signalled and
	// parked again, the stale timer's generation no longer matches and it
	// must not fire. It keeps counting across the runner's lives, so a
	// timer left behind by an earlier one stays stale.
	gen uint64
	// parked is set while the runner is parked on a condition (not a plain
	// timer) and label says which, for the deadlock report. next and prev
	// link the clock's live runners (next alone, its free list).
	parked     bool
	label      string
	next, prev *Runner
	// sem is the runner's place in the waiter list of the Semaphore it is
	// acquiring.
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
func (r *Runner) Now() Time { return r.clock.now }

// Go starts fn as a registered runner, runnable now. The runner is
// automatically unregistered when fn returns, and its goroutine, Runner
// and wake channel then serve the next Go instead of being made anew: fn
// must not keep r past its return. Go may be called from a runner, or from
// outside one before Wait; it panics once the simulation has drained.
func (c *Clock) Go(name string, fn func(r *Runner)) {
	c.GoWith(name, callFunc, fn)
}

func callFunc(r *Runner, fn any) { fn.(func(r *Runner))(r) }

// GoWith is Go for a function that takes its state as an argument instead
// of capturing it: with a package-level fn and a pointer for arg, starting
// a runner allocates nothing, where Go costs its caller a closure.
func (c *Clock) GoWith(name string, fn func(r *Runner, arg any), arg any) {
	if r, reused := c.register(name, fn, arg); !reused {
		go r.serve()
	}
}

// register adds a runnable runner that will execute fn(arg), taken from
// the free list if a runner has returned before.
func (c *Clock) register(name string, fn func(r *Runner, arg any), arg any) (r *Runner, reused bool) {
	if c.total == 0 {
		panic(fmt.Sprintf("vclock: Go(%q) after the simulation drained", name))
	}
	if r = c.idle; r != nil {
		c.idle = r.next
		c.stats.Reuses++
		reused = true
	} else {
		r = &Runner{clock: c, wake: make(chan struct{}, 1)}
		c.stats.Spawns++
	}
	c.total++
	c.nextID++
	r.name, r.id, r.fn, r.arg = name, c.nextID, fn, arg
	r.traceCtx, r.parked, r.label = 0, false, ""
	r.prev, r.next = nil, c.runners
	if r.next != nil {
		r.next.prev = r
	}
	c.runners = r
	c.ready(r)
	return r, reused
}

// serve is a runner goroutine: it runs one function after another, each
// when the baton first reaches it, idling between them on its wake
// channel until the next Go's turn comes or the simulation drains.
func (r *Runner) serve() {
	for {
		if <-r.wake; r.fn == nil || !r.live() {
			return // drained, or the last runner out
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
// drains the simulation instead.
func (c *Clock) unregister(r *Runner, reusable bool) (idle bool) {
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
	idle = reusable && c.total > 1
	if idle {
		r.next, c.idle = c.idle, r
	}
	c.leave()
	return idle
}

// leave takes one runner — a returning one, or New's caller in Wait — off
// the count and passes the baton on. The last to leave drains the
// simulation: it sends every idle runner home and closes done.
func (c *Clock) leave() {
	if c.total--; c.total > 0 {
		if next := c.pick(nil); next != nil {
			next.wake <- struct{}{}
		}
		return
	}
	for home := c.idle; home != nil; {
		next := home.next
		home.next = nil
		home.wake <- struct{}{} // fn is nil: serve returns
		home = next
	}
	c.idle = nil
	close(c.done)
}

// Wait passes the baton on and blocks until every runner has returned.
// New's caller must call it first: it stops being a runner here, so every
// runner it started with Go runs from time zero, and the simulation
// drains right away if it started none. Later calls only join.
func (c *Clock) Wait() {
	if !c.waited {
		c.waited = true
		c.leave()
	}
	<-c.done
}

// Hold pins virtual time until the returned release function is called.
// Release is idempotent; both must be called with the baton. Nothing in
// this module needs it, since New's caller pins time until Wait; it stays
// only because the benchmark driver (bench/engine.go and
// bench/bench_test.go) still calls it.
func (c *Clock) Hold() (release func()) {
	c.holds++
	held := true
	return func() {
		if held {
			held = false
			c.holds--
		}
	}
}

// Sleep parks r for virtual duration d. A non-positive d still yields a
// full park at the current instant, which lets every runner runnable now
// run first.
func (r *Runner) Sleep(d Duration) {
	r.clock.sleepUntil(r, r.clock.now.Add(max(d, 0)))
}

// SleepUntil parks r until virtual time t (or, at or after t, for a
// zero-length sleep).
func (r *Runner) SleepUntil(t Time) {
	r.clock.sleepUntil(r, max(t, r.clock.now))
}

// sleepUntil parks r on a plain timer due at at.
func (c *Clock) sleepUntil(r *Runner, at Time) {
	c.seq++
	c.timers.push(timer{at: at, seq: c.seq, r: r})
	c.stats.Parks++
	c.park(r)
}

// parkOn parks r on a condition described by label until wakeParked or
// wakeParkedAt ends the park.
func (c *Clock) parkOn(r *Runner, label string) {
	r.gen++
	r.parked, r.label = true, label
	c.stats.Parks++
	c.park(r)
}

// parkOnTimed is parkOn with a timeout backstop: a conditional timer is
// pushed alongside the condition park, and whichever fires first wins.
// The runner is woken exactly once — the timer pop skips runners no
// longer parked, and wakeParked skips runners the timer already woke.
func (c *Clock) parkOnTimed(r *Runner, label string, d Duration) {
	c.seq++
	c.timers.push(timer{at: c.now.Add(max(d, 0)), seq: c.seq, r: r, cond: true, gen: r.gen + 1})
	c.parkOn(r, label)
}

// wakeParked makes a runner parked on a condition runnable. A runner that
// is not parked — its timeout fired first — is left alone.
func (c *Clock) wakeParked(r *Runner) {
	if r.parked {
		r.parked = false
		c.stats.CondWakes++
		c.ready(r)
	}
}

// wakeParkedAt turns r's condition park into a plain timer due at at: r
// stops being condition-parked now and is woken by the timer heap, in the
// same (at, seq) order as a runner that called SleepUntil(at) at this
// moment — the seq is taken here, where that Sleep's would be. An at that
// is not in the future wakes r now.
func (c *Clock) wakeParkedAt(r *Runner, at Time) {
	if at <= c.now {
		c.wakeParked(r)
		return
	}
	r.parked = false
	c.seq++
	c.timers.push(timer{at: at, seq: c.seq, r: r})
}

// ready makes r runnable by the run-order rule.
func (c *Clock) ready(r *Runner) {
	if c.newest != nil {
		c.runq.Push(c.newest)
	}
	c.newest = r
}

// park hands the baton on and blocks r until it comes back.
func (c *Clock) park(r *Runner) {
	if next := c.pick(r); next != r {
		if next != nil {
			next.wake <- struct{}{}
		}
		<-r.wake
	}
}

// pick returns the runner the baton goes to by the run-order rule, given
// up by self (nil if the holder is leaving). It advances virtual time
// until someone is runnable, and returns nil if nobody can be: time is
// held, or the simulation is deadlocked.
func (c *Clock) pick(self *Runner) *Runner {
	for {
		if r := c.newest; r != nil {
			c.newest = nil
			return r
		}
		if c.runq.n > 0 {
			return c.runq.Pop()
		}
		if c.holds > 0 {
			return nil
		}
		if len(c.timers) == 0 {
			// Every runner is parked and nothing is due, and New's caller,
			// which alone could act before Wait, has waited: nobody is left
			// to wake anyone, or to take the baton again.
			go c.reportDeadlock(c.deadlockReport())
			return nil
		}
		if c.advance(self) {
			return self
		}
	}
}

// advance jumps to the earliest deadline and makes the runners due at it
// runnable, in (at, seq) order. Conditional timers whose runner was
// already woken through its condition are stale: they are dropped
// without waking, so an instant may make nobody runnable. It reports
// whether self is due, in which case it keeps the baton.
func (c *Clock) advance(self *Runner) (selfDue bool) {
	at := c.timers[0].at
	c.now = at
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
		c.stats.TimerWakes++
		if t.r == self {
			selfDue = true
		} else {
			c.ready(t.r)
		}
	}
	return selfDue
}

// reportDeadlock hands report to OnDeadlock, or panics with it. It runs on
// a goroutine of its own: the runner whose park stopped the clock still
// has to block.
func (c *Clock) reportDeadlock(report string) {
	if h := c.OnDeadlock; h != nil {
		h(report)
		return
	}
	panic(report)
}

func (c *Clock) deadlockReport() string {
	s := fmt.Sprintf("vclock: deadlock at t=%v: all %d runners parked with no pending timer; parked on:", c.now, c.total)
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
