package vclock

// Ring is a FIFO queue over a ring buffer that the first Push allocates,
// that grows by doubling and never shrinks: an empty one costs nothing,
// and at a steady depth Push and Pop allocate and move nothing. Pop zeroes
// the slot it vacates, so a popped element is not kept reachable by the
// backing array. It is the queue under this package's run queue, waiter
// lists and Queue, and under the rpc connection's frames in flight and the
// server's mailboxes. Not safe for concurrent use.
type Ring[T any] struct {
	buf  []T // len is zero or a power of two
	head int
	n    int
}

// Len returns the number of queued elements.
func (f *Ring[T]) Len() int { return f.n }

// At returns the i-th oldest element in place, 0 <= i < Len.
func (f *Ring[T]) At(i int) *T { return &f.buf[(f.head+i)&(len(f.buf)-1)] }

// Push appends v.
func (f *Ring[T]) Push(v T) {
	if f.n == len(f.buf) {
		f.grow()
	}
	f.buf[(f.head+f.n)&(len(f.buf)-1)] = v
	f.n++
}

func (f *Ring[T]) grow() {
	grown := make([]T, max(4, 2*len(f.buf)))
	k := copy(grown, f.buf[f.head:])
	copy(grown[k:], f.buf[:f.head])
	f.buf, f.head = grown, 0
}

// Pop removes and returns the oldest element; the ring must not be empty.
func (f *Ring[T]) Pop() T {
	var zero T
	v := f.buf[f.head]
	f.buf[f.head] = zero
	f.head = (f.head + 1) & (len(f.buf) - 1)
	f.n--
	return v
}

// PushFront puts v ahead of the oldest element.
func (f *Ring[T]) PushFront(v T) {
	if f.n == len(f.buf) {
		f.grow()
	}
	f.head = (f.head - 1) & (len(f.buf) - 1)
	f.buf[f.head] = v
	f.n++
}

// PopBack removes and returns the newest element; the ring must not be
// empty.
func (f *Ring[T]) PopBack() T {
	var zero T
	f.n--
	p := f.At(f.n)
	v := *p
	*p = zero
	return v
}

// Cond is a clock-aware condition variable. Unlike sync.Cond, waiting
// runners are invisible to the Go scheduler but visible to the virtual
// clock, so time can advance past them.
//
// It has no lock: the condition's state, like everything a clock's runners
// reach, belongs to the baton holder, so checking it and parking in Wait
// is one step no other runner can come between.
type Cond struct {
	label   string
	waiters Ring[*Runner]
}

// NewCond returns a Cond. label appears in deadlock reports.
func NewCond(label string) *Cond { return &Cond{label: label} }

// Wait parks r until Signal or Broadcast wakes it. As with sync.Cond,
// callers must re-check the condition in a loop.
func (c *Cond) Wait(r *Runner) {
	c.WaitStep(r)
	r.Park()
}

// WaitStep is Wait as a stepped primitive (see Clock.GoTask): it parks r
// on c without blocking.
func (c *Cond) WaitStep(r *Runner) {
	c.waiters.Push(r)
	r.clock.markParked(r, c.label)
}

// WaitUntil parks r until ready(arg) holds, like
//
//	for !ready(arg) {
//		c.Wait(r)
//	}
//
// but with the checks after each wake done by the kernel (the recheck
// rule, see the package comment): a wake that finds ready(arg) still false
// re-parks r without switching to its goroutine. ready runs at the instant
// r would have run, on whichever runner's goroutine is passing the baton
// on: it must not park, and must change nothing another runner can see.
// With a package-level ready and a pointer for arg, a wait allocates
// nothing, where a closure would cost one per call.
func (c *Cond) WaitUntil(r *Runner, ready func(any) bool, arg any) {
	for !c.WaitUntilStep(r, ready, arg) {
		r.Park()
	}
}

// WaitUntilStep is WaitUntil as a stepped primitive: it reports true if
// ready(arg) holds, and otherwise parks r on c without blocking and
// reports false. The kernel rechecks ready at r's turns and gives r the
// baton only once it holds, so the next call — that turn's — reports true.
func (c *Cond) WaitUntilStep(r *Runner, ready func(any) bool, arg any) (done bool) {
	if r.untilOn != nil { // r's turn after the kernel found ready(arg)
		r.until, r.untilArg, r.untilOn = nil, nil, nil
		return true
	}
	if ready(arg) {
		return true
	}
	r.until, r.untilArg, r.untilOn = ready, arg, c
	c.WaitStep(r)
	return false
}

// Signal wakes the longest-waiting runner, if any.
func (c *Cond) Signal() {
	if c.waiters.n > 0 {
		r := c.waiters.Pop()
		r.clock.wakeParked(r)
	}
}

// SignalAt is Signal with the wake-up due at virtual time t: the
// longest-waiting runner, if any, leaves the waiter list now and runs
// again at t, exactly as if it had been signalled now and had then slept
// until t — one park where that would be two. A t that is not in the
// future is a plain Signal. Like every wake from a condition, it is a hint
// to re-check: the woken runner looks again.
//
// It exists for a producer that knows when what it produced becomes
// visible (a frame's arrival time, rpc.Conn): the consumer parked on
// "empty" need not wake to find that out and park again.
func (c *Cond) SignalAt(t Time) {
	if c.waiters.n > 0 {
		r := c.waiters.Pop()
		r.clock.wakeParkedAt(r, t)
	}
}

// Broadcast wakes all waiting runners, longest-waiting first.
func (c *Cond) Broadcast() {
	for c.waiters.n > 0 {
		r := c.waiters.Pop()
		r.clock.wakeParked(r)
	}
}

// Semaphore is a counting semaphore, usable as a resource pool (CPU cores,
// device dies, queue slots).
//
// Admission is not FIFO. A caller that finds enough units free takes them,
// whoever is waiting. When units come back, woken waiters race for them:
// the first to run wins, and the losers park again. The order this gives
// is defined by the simplest Release, one that wakes every waiter, oldest
// first (herdSemaphore in the tests, which
// TestAdmissionMatchesHerdReference holds this one to). By the run-order
// rule (see the package comment) the winner of that herd is its newest
// waiter, or — when the releaser goes on to wake someone else before it
// parks — its oldest, and the rest can only lose. Release wakes those two:
// while every waiter wants one unit, the longest-waiting one per free unit
// and the most recent one, oldest first; the others stay parked where
// they are, and the switches a herd spends on losers are saved. Two things
// keep the herd's order among waiters that were never woken:
//
//   - a woken waiter that loses parks again where the herd, re-queueing in
//     the order it ran, would have put it (see Acquire);
//   - units released while the longest waiters of an earlier Release have
//     yet to run wake no one new: the herd of that Release would be awake
//     still, and its members would take such units in turn — here each
//     longest waiter that wins wakes the next for what it leaves.
//
// While some waiter wants more than one unit, who can win depends on what
// the others take, and Release wakes them all.
//
// A first-class waiter (AcquireFirstStep) is in no race: Release grants
// each unit it frees to the longest-waiting of them first.
type Semaphore struct {
	avail int
	cap   int
	label string

	waiters Ring[*Runner] // parked in AcquireStep, in order of semWait.ticket
	first   Ring[*Runner] // parked in AcquireFirstStep, oldest first
	wide    int           // waiters, parked or woken, that want more than one unit
	// oldestAwake counts waiters woken as the longest-waiting that have yet
	// to run: the free units are theirs to take or pass on, and whoever
	// parks before they run parks ahead of them.
	oldestAwake int
	// Tickets order the list. At the back they rise from tail. At the
	// front, each round of wakes opens a block of semRound tickets below
	// every ticket in use, and those who park ahead of the round's oldest
	// waiters take them in rising order from head.
	head, tail int64
}

// semRound is more than the runners a simulation has, and few enough that
// an int64 lasts 2^43 rounds.
const semRound = 1 << 20

// semWait is a runner's state as a Semaphore waiter.
type semWait struct {
	ticket int64 // place in the waiter list
	// oldest says the runner's last wake took it from the front of the
	// list. Release writes it with every wake, so it never outlives the
	// wake it describes.
	oldest bool
	queued bool // the runner is in an AcquireStep that has parked
}

// NewSemaphore returns a semaphore with the given capacity.
func NewSemaphore(capacity int, label string) *Semaphore {
	return &Semaphore{avail: capacity, cap: capacity, label: label}
}

// Acquire takes n units, parking r until they are available.
//
// A waiter parks at the place it would have if Release woke every waiter:
// that herd runs in the order it was woken, after whoever was woken last,
// and queues up again in the order it runs. So a waiter woken from the
// front that finds the units gone returns to the front, in its old order.
// Anyone who parks while such a waiter has yet to run — the one woken from
// the back, if it runs first as it usually does and loses to a caller that
// never waited, or a newcomer — would find the herd's list empty, and
// parks ahead of everyone who is in this one. Everybody else goes to the
// back.
func (s *Semaphore) Acquire(r *Runner, n int) {
	for !s.AcquireStep(r, n) {
		r.Park()
	}
}

// AcquireStep is Acquire as a stepped primitive (see Clock.GoTask): it
// takes the n units and reports true if they are free, and otherwise parks
// r without blocking and reports false. The caller hands the baton on (a
// task's step returns; Acquire calls Park) and calls again with the same n
// when r's turn comes.
func (s *Semaphore) AcquireStep(r *Runner, n int) (done bool) {
	if !r.sem.queued {
		if s.TryAcquire(n) {
			return true
		}
		if n > 1 {
			s.wide++
		}
		r.clock.stats.SemWaits++
		r.sem.oldest, r.sem.queued = false, true
	} else if s.woken(r, n) {
		r.sem.queued = false
		return true
	}
	s.wait(r)
	return false
}

// AcquireFirstStep is AcquireStep for one unit in the first admission
// class: r takes a free unit at once, or else parks until Release grants
// it one, ahead of every other waiter and in arrival order among its class.
func (s *Semaphore) AcquireFirstStep(r *Runner) (done bool) {
	if r.sem.queued || s.TryAcquire(1) { // granted, or free
		r.sem.queued = false
		return true
	}
	r.clock.stats.SemWaits++
	r.clock.stats.SemParks++
	r.sem.queued = true
	s.first.Push(r)
	r.clock.markParked(r, s.label)
	return false
}

// wait parks r, without blocking, at its place in the waiter list (see
// Acquire): among the oldest if its last wake took it from there.
func (s *Semaphore) wait(r *Runner) {
	switch {
	case r.sem.oldest:
		s.pushOldest(r)
	case s.oldestAwake > 0:
		s.head++
		r.sem.ticket = s.head
		s.pushOldest(r)
	default:
		s.tail++
		r.sem.ticket = s.tail
		s.waiters.Push(r)
	}
	r.clock.stats.SemParks++
	r.clock.markParked(r, s.label)
}

// woken is a waiter's turn after a wake: it takes the n units and reports
// true if they are free, or reports false, and r must wait again, if they
// are gone.
func (s *Semaphore) woken(r *Runner, n int) bool {
	oldest := r.sem.oldest
	if oldest {
		s.oldestAwake--
	}
	if s.avail < n {
		return false
	}
	s.avail -= n
	if n > 1 {
		s.wide--
	}
	if oldest && s.avail > 0 {
		// Units released while this waiter was awake woke nobody (see
		// Release): it passes on what it leaves to the waiter behind it,
		// who in a herd would run right after it.
		if s.wide > 0 {
			s.wakeAll()
		} else {
			s.wakeOldest()
		}
	}
	return true
}

// pushOldest puts r among the longest waiters, in ticket order: behind
// the few with older tickets that got there before it.
func (s *Semaphore) pushOldest(r *Runner) {
	w := &s.waiters
	w.PushFront(r)
	for i := 1; i < w.n && (*w.At(i)).sem.ticket < r.sem.ticket; i++ {
		*w.At(i - 1), *w.At(i) = *w.At(i), r
	}
}

// TryAcquire takes n units without blocking and reports whether it did.
func (s *Semaphore) TryAcquire(n int) bool {
	if s.avail < n {
		return false
	}
	s.avail -= n
	return true
}

// Release returns n units and wakes the waiters that can win them.
func (s *Semaphore) Release(n int) {
	if s.avail += n; s.avail > s.cap {
		panic("vclock: semaphore over-release")
	}
	for s.first.n > 0 && s.avail > 0 {
		s.avail--
		r := s.first.Pop()
		r.clock.wakeParked(r)
		if s.avail == 0 {
			return
		}
	}
	switch {
	case s.wide > 0:
		s.wakeAll()
	case s.oldestAwake == 0:
		s.head -= semRound
		s.wakeOldest()
		if s.waiters.n > 0 {
			s.wake(s.waiters.PopBack(), false)
		}
	default:
		// The longest waiters of an earlier Release have yet to run: a
		// herd woken then would leave this Release a list of those who
		// parked since, which are the holders of this round's front
		// tickets. The units they do not take, the waiters still awake do,
		// each waking the next (see Acquire).
		for s.waiters.n > 0 && (*s.waiters.At(0)).sem.ticket <= s.head {
			s.wake(s.waiters.Pop(), false)
		}
	}
}

// wakeOldest wakes the longest waiters until one is awake per free unit.
func (s *Semaphore) wakeOldest() {
	for s.waiters.n > 0 && s.oldestAwake < s.avail {
		s.oldestAwake++
		s.wake(s.waiters.Pop(), true)
	}
}

func (s *Semaphore) wakeAll() {
	for s.waiters.n > 0 {
		s.wake(s.waiters.Pop(), false)
	}
}

func (s *Semaphore) wake(r *Runner, oldest bool) {
	r.sem.oldest = oldest
	r.clock.wakeParked(r)
}

// Queue is a clock-aware bounded FIFO channel between runners. A capacity
// of 0 is rendezvous-free: it is promoted to 1 (true rendezvous semantics
// are not needed by the simulator and complicate the kernel).
type Queue[T any] struct {
	items    Ring[T]
	capacity int
	closed   bool
	notEmpty Cond
	notFull  Cond
}

// NewQueue returns a bounded queue with the given capacity.
func NewQueue[T any](capacity int, label string) *Queue[T] {
	return &Queue[T]{capacity: max(capacity, 1), notEmpty: Cond{label: label + ".pop"}, notFull: Cond{label: label + ".push"}}
}

// Push enqueues v, parking r while the queue is full. It panics if the
// queue is closed.
func (q *Queue[T]) Push(r *Runner, v T) {
	q.notFull.WaitUntil(r, queueCanPush, q)
	if q.closed {
		panic("vclock: push on closed queue")
	}
	q.items.Push(v)
	q.notEmpty.Signal()
}

// TryPop dequeues the oldest item without blocking; ok is false when the
// queue is empty.
func (q *Queue[T]) TryPop() (v T, ok bool) {
	if q.items.n == 0 {
		return v, false
	}
	v = q.items.Pop()
	q.notFull.Signal()
	return v, true
}

// Pop dequeues the oldest item, parking r while the queue is empty. ok is
// false when the queue is closed and drained.
func (q *Queue[T]) Pop(r *Runner) (v T, ok bool) {
	q.notEmpty.WaitUntil(r, queueCanPop, q)
	return q.TryPop()
}

// The predicates of Push and Pop. A generic function's value is made
// anew where it is used, so the two reach the Queue through an interface.
type queueState interface {
	canPush() bool
	canPop() bool
}

func (q *Queue[T]) canPush() bool { return q.items.n < q.capacity || q.closed }
func (q *Queue[T]) canPop() bool  { return q.items.n > 0 || q.closed }

func queueCanPush(q any) bool { return q.(queueState).canPush() }
func queueCanPop(q any) bool  { return q.(queueState).canPop() }

// Close marks the queue closed; blocked Pops drain remaining items and then
// return ok=false, and blocked Pushes panic.
func (q *Queue[T]) Close() {
	q.closed = true
	q.notEmpty.Broadcast()
	q.notFull.Broadcast()
}

// Resource models a shared service center (a PCIe link, a NAND channel bus,
// a CPU core pool): capacity units, admitted in Semaphore's order, with
// busy-time accounting for utilization measurements.
type Resource struct {
	sem    *Semaphore
	busyNS int64 // cumulative unit-nanoseconds of service
}

// NewResource returns a resource with the given parallel capacity.
func NewResource(capacity int, label string) *Resource {
	return &Resource{sem: NewSemaphore(capacity, label)}
}

// Use occupies one unit for duration d of virtual time: it queues for
// admission, holds the unit while sleeping d, then releases it.
func (res *Resource) Use(r *Runner, d Duration) {
	for !res.UseStep(r, d) {
		r.Park()
	}
}

// UseStep is Use as a stepped primitive (see Clock.GoTask): it takes r's
// use of one unit for d as far as it goes without blocking, and reports
// whether the use is over. Until it is, r is parked — waiting for a unit,
// or holding one for d — and the caller hands the baton on (a task's step
// returns; Use calls Park) and calls again with the same d when r's turn
// comes. A runner is in one use at a time.
func (res *Resource) UseStep(r *Runner, d Duration) (done bool) { return res.UseClassStep(r, d, false) }

// UseClassStep is UseStep in the first admission class if first is set
// (Semaphore.AcquireFirstStep), and UseStep itself if it is not.
func (res *Resource) UseClassStep(r *Runner, d Duration, first bool) (done bool) {
	if d <= 0 {
		return true
	}
	if r.held {
		r.held = false
		res.sem.Release(1)
		res.busyNS += int64(d)
		return true
	}
	if first && !res.sem.AcquireFirstStep(r) || !first && !res.sem.AcquireStep(r, 1) {
		return false
	}
	r.held = true
	r.SleepStep(d) // r holds the unit for d
	return false
}

// Cap returns the resource's parallel capacity.
func (res *Resource) Cap() int { return res.sem.cap }

// BusyNS returns cumulative busy unit-nanoseconds; sampling it at intervals
// yields utilization: delta / (interval * capacity).
func (res *Resource) BusyNS() int64 { return res.busyNS }
