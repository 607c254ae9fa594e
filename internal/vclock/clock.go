// Package vclock implements a conservative virtual-time kernel for
// discrete-event simulation with real goroutines.
//
// Simulation actors ("runners") are registered with a Clock, and exactly
// one of them runs at a time: the one holding the clock's baton. It runs
// until it parks in a clock-aware primitive (Sleep, Cond.Wait,
// Semaphore.Acquire, Queue.Pop, ...) or returns, and then the baton
// passes to the next runnable runner. When no runner is runnable, the
// clock jumps to the earliest pending timer deadline and makes the
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
// The recheck rule. A runner parked in Cond.WaitUntil hands the kernel its
// predicate. When a wake makes it runnable and its turn comes by the
// run-order rule, the kernel evaluates the predicate on the goroutine that
// is passing the baton on. True, and the runner gets the baton, its wait
// over. False, and the kernel re-parks it exactly as its own Wait would
// have, then goes on picking as that park would have — with the waiter,
// not the runner that was passing the baton, as the one whose timer may
// let it keep the baton. A recheck is a park whose goroutine switch is
// saved: the runs, the virtual times and every count but Stats.Rechecks
// and Stats.Handoffs are those of the loop
//
//	for !ready(arg) {
//		c.Wait(r)
//	}
//
// The task rule. Every runner is a task: a step function and its
// argument (Clock.GoTask), or one blocking call (Clock.Go, below). It
// registers, parks and is woken like any runner, and when the run-order
// rule gives it its turn, the kernel calls its step on the goroutine that
// is passing the baton on. The step runs until it parks, in a stepped
// primitive that does not block (Runner.SleepStep, Semaphore.AcquireStep,
// Resource.UseStep), and returns false right after; or it returns true,
// and the task is over. The kernel then goes on picking as the task's
// park, or its return, would have — with the task as the runner whose
// timer may let it keep the baton, in which case it is stepped again on
// the spot. So a task is
// a runner whose goroutine switches are saved: the runs, the virtual times
// and every count but Stats.Handoffs, Spawns and Reuses are those of a
// goroutine running
//
//	for !step(r, arg) {
//		r.Park()
//	}
//
// The recheck rule covers tasks too: a task parked in Cond.WaitUntilStep
// has its predicate checked before its step is called, and is re-parked
// without a step while it is false.
//
// A step that must block (an engine call that parks wherever it likes)
// asks for a call instead: Runner.Call(fn, arg), and the step returns
// false. The kernel then hands the baton to the task itself, which runs
// fn(r, arg) on a goroutine it keeps for its calls, as blocking goroutine
// code, and steps itself again on that goroutine once fn returns. A call
// parks nothing and registers no runner: the goroutine a task is compared
// with makes the call inline, where the step asked for it, and steps
// again without a park. Clock.Go starts a task whose one turn is such a
// call, over when the call returns: the baton reaches fn when it would
// reach a goroutine started for fn. So a goroutine only ever exists as
// what a task keeps for its calls.
//
// The caller is the first runner: the goroutine that calls New holds the
// baton until it calls Wait. So no runner runs, and virtual time stays at
// zero, while it sets up and starts the simulation's runners, however long
// that takes in wall time. Go may be called from outside a runner only
// before Wait; from then on, only runners start runners.
//
// Runners are cheap to start: a later Go or GoTask reuses a finished
// task's Runner, and the goroutine its calls ran on (see Clock.Go and
// Clock.GoTask). Those goroutines all exit when the simulation drains.
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
	"strings"
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
	free    *Runner       // returned runners with no call goroutine, newest first, linked through Runner.next
	callers *Runner       // returned runners with one, likewise
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
	// Spawns counts runners (Go, GoWith, GoTask) started on a new Runner,
	// Reuses those started on the Runner of one that had returned, with
	// the goroutine its calls ran on if it made any: a goroutine is made
	// only at a Runner's first call, so Spawns bounds the goroutines too.
	Spawns uint64
	Reuses uint64
	// SemWaits counts Semaphore admissions that found too few units and
	// had to park; SemParks counts the parks they took, so SemParks/SemWaits
	// is what one contended admission costs (1 with no lost race).
	SemWaits uint64
	SemParks uint64
	// Rechecks counts the parks the kernel took on a waiter's behalf: a
	// Cond.WaitUntil waiter whose turn came with its predicate still false
	// (each is one of Parks). Handoffs counts baton passes to another
	// goroutine, the switches a run costs the host.
	Rechecks uint64
	Handoffs uint64
}

// Stats returns a snapshot of the kernel's event counts.
func (c *Clock) Stats() Stats { return c.stats }

// Runner is the handle a runner uses to interact with its Clock. Its
// steps run on whichever goroutine passes the baton on, and its calls on
// a goroutine of its own, made at its first call. Between two lives the
// Runner is off the clock's books and on one of its free lists, with that
// goroutine if it has one.
type Runner struct {
	clock *Clock
	name  string
	id    uint64
	wake  chan struct{} // the baton, handed to r's call goroutine; nil until r's first call
	// step and arg are the turns this life of the runner takes. step is nil
	// while a call runs, and while the call is the life's one turn
	// (Clock.Go); both are nil while the runner idles on a free list. lent
	// says a call lent them (Runner.Lend): a done step goes back to it.
	step func(r *Runner, arg any) (done bool)
	arg  any
	lent bool
	// call and callArg are the blocking call r asked for (Runner.Call),
	// until r's call goroutine takes them up.
	call    func(r *Runner, arg any)
	callArg any
	// gen counts condition parks. A conditional timer records the
	// generation it backstops; if the runner has since been signalled and
	// parked again, the stale timer's generation no longer matches and it
	// must not fire. It keeps counting across the runner's lives, so a
	// timer left behind by an earlier one stays stale.
	gen uint64
	// parked is set while the runner is parked on a condition (not a plain
	// timer) and label says which, for the deadlock report. next and prev
	// link the clock's live runners (next alone, its free lists).
	parked     bool
	label      string
	next, prev *Runner
	// sem is the runner's place in the waiter list of the Semaphore it is
	// acquiring, and held says its Resource.UseStep holds a unit.
	sem  semWait
	held bool
	// until, untilArg and untilOn describe a Cond.WaitUntil park: the
	// predicate pick checks when the runner's turn comes, and the Cond it
	// re-parks on while the predicate is false. Nil outside such a park.
	until    func(any) bool
	untilArg any
	untilOn  *Cond
	// traceCtx is a per-runner scratch slot owned by the tracing layer:
	// the id of the innermost open trace span on this runner, so child
	// spans (and cross-runner handoffs such as NVMe commands) can record
	// a causal parent without any shared state. Only the runner itself,
	// in its steps and calls, reads or writes it.
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
// by the runner itself.
func (r *Runner) SetTraceCtx(ctx uint64) { r.traceCtx = ctx }

// Clock returns the clock this runner is registered with.
func (r *Runner) Clock() *Clock { return r.clock }

// Now returns the current virtual time.
func (r *Runner) Now() Time { return r.clock.now }

// Go starts fn as a runner, runnable now: a task whose one turn is a
// call of fn (see Runner.Call), over when fn returns. So fn is ordinary
// blocking goroutine code, run as r when the baton first reaches r, on the
// goroutine r keeps for its calls. r, and that goroutine, then serve a
// later Go or GoTask instead of being made anew: fn must not keep r past
// its return. Go may be called from a runner, or from outside one before
// Wait; it panics once the simulation has drained.
func (c *Clock) Go(name string, fn func(r *Runner)) {
	c.GoWith(name, callFunc, fn)
}

func callFunc(r *Runner, fn any) { fn.(func(r *Runner))(r) }

// GoWith is Go for a package-level fn that takes its state as arg: it
// allocates nothing once a runner has returned, where Go costs a closure.
// Beside Go, only the Dev-LSM's background flush starts a runner with it.
func (c *Clock) GoWith(name string, fn func(r *Runner, arg any), arg any) {
	c.enlist(name, &c.callers, &c.free).Call(fn, arg)
}

// GoTask starts a task, runnable now, whose turns the kernel runs by
// calling step(r, arg) on whichever goroutine is passing the baton on (the
// task rule, see the package comment). A step may do what any runner's
// code between two parks may, and it may park r in a stepped primitive
// (Runner.SleepStep, Semaphore.AcquireStep, Resource.UseStep, or one
// built on them), or ask for a blocking call (Runner.Call); it must
// return false right after that park or call, and must never block or
// park any other way. It returns true when the task is over, and r then
// serves a later Go or GoTask: step must not keep it. Like GoWith,
// starting a task allocates nothing once a runner has returned; GoTask
// takes a Runner with no goroutine first, Go one that has a goroutine.
func (c *Clock) GoTask(name string, step func(r *Runner, arg any) (done bool), arg any) {
	r := c.enlist(name, &c.free, &c.callers)
	r.step, r.arg = step, arg
}

// Call is how a runner blocks: it asks for fn(r, arg) to run as r, with a
// goroutine that may park however it likes. A task's step returns false
// right after, having parked nothing; Go asks for its one call before the
// runner's first turn. When r's turn comes, the kernel hands r the baton:
// fn runs on a goroutine r keeps for its calls, made at its first, and
// when fn returns, r's step, if it has one, is called again on that
// goroutine, the kernel going on as the step's park, or its return, would.
// The run is that of a runner that made the call inline (see the package
// comment).
func (r *Runner) Call(fn func(r *Runner, arg any), arg any) {
	if r.wake == nil {
		r.wake = make(chan struct{}, 1)
		go r.serveCalls()
	}
	r.call, r.callArg = fn, arg
}

// serveCalls is a runner's call goroutine: it runs the runner's calls,
// each when the baton reaches it, until the simulation drains or a call
// leaves by runtime.Goexit.
func (r *Runner) serveCalls() {
	for {
		if <-r.wake; r.call == nil || !r.calls() {
			return // drained, or the call left abnormally
		}
	}
}

// calls runs r's call, then steps r, running any further call the step
// asks for on the spot, until the step parks r or ends the task (a runner
// Go started has no step: it is over when its call returns); then it
// passes the baton on as that park, or the task's end, would. A call that
// leaves by runtime.Goexit (t.Fatal on a runner) or a panic takes r off
// the books but not onto a free list, and calls reports false: this
// goroutine is on its way out.
func (r *Runner) calls() (ok bool) {
	c := r.clock
	defer func() {
		if !ok {
			c.unlink(r)
			c.leave()
		}
	}()
	for {
		fn, arg, step := r.call, r.callArg, r.step
		r.call, r.callArg, r.step = nil, nil, nil // r is a plain runner while fn runs
		fn(r, arg)
		if r.step = step; step == nil || step(r, r.arg) {
			c.retire(r)
			c.leave()
			return true
		}
		if r.call != nil {
			continue
		}
		if next := c.pick(r); next != r {
			if next != nil {
				c.handOff(next)
			}
			return true
		}
		// pick stepped r again (its timer was due), and the step called.
	}
}

// enlist adds a runnable runner, taken from the free list at *free if one
// is there, else from the one at *fallback.
func (c *Clock) enlist(name string, free, fallback **Runner) (r *Runner) {
	if c.total == 0 {
		panic(fmt.Sprintf("vclock: Go(%q) after the simulation drained", name))
	}
	if *free == nil {
		free = fallback
	}
	if r = *free; r != nil {
		*free = r.next
		c.stats.Reuses++
	} else {
		r = &Runner{clock: c}
		c.stats.Spawns++
	}
	c.total++
	c.nextID++
	r.name, r.id = name, c.nextID
	r.traceCtx, r.parked, r.label = 0, false, ""
	r.prev, r.next = nil, c.runners
	if r.next != nil {
		r.next.prev = r
	}
	c.runners = r
	c.ready(r)
	return r
}

// retire takes r, whose task is over, off the list of live runners and
// puts it on the free list of its kind: with a call goroutine or without.
func (c *Clock) retire(r *Runner) {
	c.unlink(r)
	if r.wake != nil {
		r.next, c.callers = c.callers, r
	} else {
		r.next, c.free = c.free, r
	}
}

// unlink takes r off the list of live runners and drops what its life ran.
func (c *Clock) unlink(r *Runner) {
	if r.prev != nil {
		r.prev.next = r.next
	} else {
		c.runners = r.next
	}
	if r.next != nil {
		r.next.prev = r.prev
	}
	r.next, r.prev = nil, nil
	r.step, r.arg = nil, nil // an idle runner must not pin its last life's state
}

// leave takes one runner — a returning one, or New's caller in Wait — off
// the count and passes the baton on. The last to leave, or the runner
// whose pick sees the last task finish, drains the simulation: it sends
// every idle call goroutine home and closes done.
func (c *Clock) leave() {
	if c.total--; c.total > 0 {
		if next := c.pick(nil); next != nil {
			c.handOff(next)
			return
		}
		if c.total > 0 {
			return
		}
	}
	for home := c.callers; home != nil; home = home.next {
		home.wake <- struct{}{} // its call is nil: it returns
	}
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

// Hold pins virtual time until the returned, idempotent release is called,
// both with the baton. Only bench/ calls it: New's caller pins until Wait.
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

// Lend lends r's turns to step until it reports done, and then returns:
// r runs the loop `for !step(r, arg) { r.Park() }` by the task rule, the
// first step here and the rest at r's turns on whichever goroutine passes
// the baton on, which hands it back to r's goroutine once a step is done.
// r must be inside a call (Clock.Go, Runner.Call); step must not call.
func (r *Runner) Lend(step func(r *Runner, arg any) (done bool), arg any) {
	if !step(r, arg) {
		r.step, r.arg, r.lent = step, arg, true
		r.clock.park(r)
		r.step, r.arg, r.lent = nil, nil, false
	}
}

// Sleep parks r for virtual duration d. A non-positive d still yields a
// full park at the current instant, which lets every runner runnable now
// run first.
func (r *Runner) Sleep(d Duration) {
	r.SleepStep(d)
	r.clock.park(r)
}

// SleepUntil parks r until virtual time t (or, at or after t, for a
// zero-length sleep).
func (r *Runner) SleepUntil(t Time) {
	r.SleepUntilStep(t)
	r.clock.park(r)
}

// SleepStep is Sleep as a stepped primitive: it parks r for d without
// blocking. A task's step returns right after it; any other runner calls
// Park.
func (r *Runner) SleepStep(d Duration) {
	r.SleepUntilStep(r.clock.now.Add(max(d, 0)))
}

// SleepUntilStep is SleepUntil as a stepped primitive, as SleepStep is
// Sleep.
func (r *Runner) SleepUntilStep(t Time) {
	c := r.clock
	c.seq++
	c.timers.push(timer{at: max(t, c.now), seq: c.seq, r: r})
	c.stats.Parks++
}

// Park hands the baton on after a stepped primitive has parked r, and
// returns when r's turn comes again: the blocking half of Sleep, Use and
// the like, for a runner with a goroutine. A task never calls it.
func (r *Runner) Park() { r.clock.park(r) }

// markParked books r as parked on a condition described by label.
func (c *Clock) markParked(r *Runner, label string) {
	r.gen++
	r.parked, r.label = true, label
	c.stats.Parks++
}

// parkOnTimed parks r on a condition described by label, with a timeout
// backstop: a conditional timer is pushed alongside the condition park,
// and whichever fires first wins.
// The runner is woken exactly once — the timer pop skips runners no
// longer parked, and wakeParked skips runners the timer already woke.
func (c *Clock) parkOnTimed(r *Runner, label string, d Duration) {
	c.seq++
	c.timers.push(timer{at: c.now.Add(max(d, 0)), seq: c.seq, r: r, cond: true, gen: r.gen + 1})
	c.markParked(r, label)
	c.park(r)
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
			c.handOff(next)
		}
		<-r.wake
	}
}

// handOff passes the baton to next, which runs on a goroutine other than
// the caller's.
func (c *Clock) handOff(next *Runner) {
	c.stats.Handoffs++
	next.wake <- struct{}{}
}

// pick returns the runner the baton goes to by the run-order, recheck and
// task rules, given up by self (nil if the holder is leaving): a runner
// whose turn is a call, which runs on a goroutine of its own. It advances
// virtual time until someone is runnable, and returns nil if nobody can
// be: time is held, the last task has finished, or the simulation is
// deadlocked.
func (c *Clock) pick(self *Runner) *Runner {
	for {
		r := c.newest
		if r != nil {
			c.newest = nil
		} else if c.runq.n > 0 {
			r = c.runq.Pop()
		} else {
			if c.holds > 0 {
				return nil
			}
			if len(c.timers) == 0 {
				// Every runner is parked and nothing is due, and New's
				// caller, which alone could act before Wait, has waited:
				// nobody is left to wake anyone, or to take the baton again.
				go c.reportDeadlock(c.deadlockReport())
				return nil
			}
			if !c.advance(self) {
				continue
			}
			if self.step == nil {
				return self // inside a call
			}
			r = self // a stepped task keeps the baton: it is stepped again here
		}
		switch {
		case r.until != nil && !r.until(r.untilArg):
			// r would run only to find its predicate false and Wait again:
			// park it here instead, and pick on as its park would.
			c.stats.Rechecks++
			r.untilOn.waiters.Push(r)
			c.markParked(r, r.untilOn.label)
			self = r
		case r.step == nil:
			return r // r is inside a call, or its turn is Go's one call
		default:
			// r's turn is its step, run here; then pick on as its park,
			// or its return, would — or hand r the baton for its call.
			self = r
			if r.step(r, r.arg) {
				if r.lent {
					return r // back to the call that lent the step
				}
				c.retire(r)
				if c.total--; c.total == 0 {
					return nil
				}
				self = nil
			} else if r.call != nil {
				return r
			}
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
	return s + strings.Join(labels, "")
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
