package vclock

import "sync"

// Ring is a FIFO queue over a ring buffer that the first Push allocates,
// that grows by doubling and never shrinks: an empty one costs nothing,
// and at a steady depth Push and Pop allocate and move nothing. Pop zeroes
// the slot it vacates, so a popped element is not kept reachable by the
// backing array. It is the queue under this package's waiter lists and
// Queue, exported for the layers above that keep queues of their own
// (rpc.Conn's frames in flight, the server's mailboxes). Not safe for
// concurrent use.
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
// The usage pattern mirrors sync.Cond: L protects the condition state, and
// Wait atomically releases L, parks, and re-acquires L on wake.
type Cond struct {
	L     sync.Locker
	label string

	mu      sync.Mutex // protects waiters; taken before Clock.mu, never after
	waiters Ring[*Runner]
}

// NewCond returns a Cond using locker l. label appears in deadlock reports.
func NewCond(l sync.Locker, label string) *Cond {
	return &Cond{L: l, label: label}
}

// Wait atomically releases c.L and parks r until Signal or Broadcast wakes
// it, then re-acquires c.L before returning. As with sync.Cond, callers
// must re-check the condition in a loop.
func (c *Cond) Wait(r *Runner) {
	// Joining the waiter list and parking with the clock must be atomic
	// under c.mu, or a Signal between the two could pop a runner that the
	// clock does not yet consider parked. Lock order everywhere in this
	// file: Cond.mu, then Clock.mu.
	c.mu.Lock()
	c.waiters.Push(r)
	r.clock.parkOn(r, c.label)
	c.mu.Unlock()
	// The wake channel is buffered, so a signal arriving before we block
	// on it is not lost, and we may still briefly hold L here.
	c.L.Unlock()
	<-r.wake
	c.L.Lock()
}

// Signal wakes the longest-waiting runner, if any.
func (c *Cond) Signal() {
	c.mu.Lock()
	var r *Runner
	if c.waiters.n > 0 {
		r = c.waiters.Pop()
	}
	c.mu.Unlock()
	if r != nil {
		r.clock.wakeParked(r)
	}
}

// SignalAt is Signal with the wake-up due at virtual time t: the
// longest-waiting runner, if any, leaves the waiter list now and runs
// again at t, exactly as if it had been signalled now and had then slept
// until t — one park where that would be two. A t that is not in the
// future is a plain Signal. Like every wake from a condition, it is a hint
// to re-check: the woken runner re-acquires L and looks again.
//
// It exists for a producer that knows when what it produced becomes
// visible (a frame's arrival time, rpc.Conn): the consumer parked on
// "empty" need not wake to find that out and park again.
func (c *Cond) SignalAt(t Time) {
	c.mu.Lock()
	var r *Runner
	if c.waiters.n > 0 {
		r = c.waiters.Pop()
	}
	c.mu.Unlock()
	if r != nil {
		r.clock.wakeParkedAt(r, t)
	}
}

// Broadcast wakes all waiting runners, longest-waiting first.
func (c *Cond) Broadcast() {
	// The wakes happen under c.mu so the waiter list can be drained in
	// place and its backing array reused by the next Wait; a woken runner
	// that waits again simply queues behind this call.
	c.mu.Lock()
	for c.waiters.n > 0 {
		r := c.waiters.Pop()
		r.clock.wakeParked(r)
	}
	c.mu.Unlock()
}

// Semaphore is a counting semaphore, usable as a resource pool (CPU cores,
// device dies, queue slots).
//
// Admission is not FIFO. A caller that finds enough units free takes them,
// whoever is waiting. When units come back, woken waiters race for them:
// the first to run wins, which is the Go scheduler's choice, and the losers
// park again. The order this gives is defined by the simplest Release, one
// that wakes every waiter, oldest first (herdSemaphore in the tests, which
// TestAdmissionMatchesHerdReference holds this one to). On one P a woken
// runner runs next unless a later wake displaces it to the back of the run
// queue, so of that herd the winner is the newest waiter, or — when the
// releaser goes on to wake someone else before it parks — the oldest, and
// the rest can only lose. Release wakes those two: while every waiter
// wants one unit, the longest-waiting one per free unit and the most
// recent one, oldest first; the others stay parked where they are, and the
// switches a herd spends on losers are saved. Two things keep the herd's
// order among waiters that were never woken:
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
type Semaphore struct {
	mu    sync.Mutex
	avail int
	cap   int
	label string

	waiters Ring[*Runner] // parked in Acquire, in order of semWait.ticket
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
}

// NewSemaphore returns a semaphore with the given capacity.
func NewSemaphore(capacity int, label string) *Semaphore {
	return &Semaphore{avail: capacity, cap: capacity, label: label}
}

// Cap returns the semaphore's capacity.
func (s *Semaphore) Cap() int { return s.cap }

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
	s.mu.Lock()
	if s.avail >= n {
		s.avail -= n
		s.mu.Unlock()
		return
	}
	if n > 1 {
		s.wide++
	}
	oldest := false
	for first := true; ; first = false {
		switch {
		case oldest:
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
		// Joining the waiter list and parking with the clock are atomic
		// under s.mu, so Release never pops a runner the clock does not yet
		// consider parked. Lock order: Semaphore.mu, then Clock.mu.
		c := r.clock
		c.mu.Lock()
		c.stats.SemParks++
		if first {
			c.stats.SemWaits++
		}
		c.parkOnLocked(r, s.label)
		s.mu.Unlock()
		<-r.wake
		s.mu.Lock()
		if oldest = r.sem.oldest; oldest {
			s.oldestAwake--
		}
		if s.avail >= n {
			break
		}
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
	s.mu.Unlock()
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
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.avail < n {
		return false
	}
	s.avail -= n
	return true
}

// Release returns n units and wakes the waiters that can win them.
func (s *Semaphore) Release(n int) {
	s.mu.Lock()
	s.avail += n
	if s.avail > s.cap {
		s.mu.Unlock()
		panic("vclock: semaphore over-release")
	}
	// The wakes happen under s.mu, so the list is edited in place; a woken
	// runner that parks again queues behind this call.
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
	s.mu.Unlock()
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

// InUse returns the number of units currently held.
func (s *Semaphore) InUse() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cap - s.avail
}

// Queue is a clock-aware bounded FIFO channel between runners. A capacity
// of 0 is rendezvous-free: it is promoted to 1 (true rendezvous semantics
// are not needed by the simulator and complicate the kernel).
type Queue[T any] struct {
	mu       sync.Mutex
	items    Ring[T]
	capacity int
	closed   bool
	notEmpty *Cond
	notFull  *Cond
}

// NewQueue returns a bounded queue with the given capacity.
func NewQueue[T any](capacity int, label string) *Queue[T] {
	if capacity < 1 {
		capacity = 1
	}
	q := &Queue[T]{capacity: capacity}
	q.notEmpty = NewCond(&q.mu, label+".pop")
	q.notFull = NewCond(&q.mu, label+".push")
	return q
}

// Push enqueues v, parking r while the queue is full. It panics if the
// queue is closed.
func (q *Queue[T]) Push(r *Runner, v T) {
	q.mu.Lock()
	for q.items.n >= q.capacity && !q.closed {
		q.notFull.Wait(r)
	}
	if q.closed {
		q.mu.Unlock()
		panic("vclock: push on closed queue")
	}
	q.items.Push(v)
	q.mu.Unlock()
	q.notEmpty.Signal()
}

// TryPush enqueues v if there is room, without blocking.
func (q *Queue[T]) TryPush(v T) bool {
	q.mu.Lock()
	if q.closed || q.items.n >= q.capacity {
		q.mu.Unlock()
		return false
	}
	q.items.Push(v)
	q.mu.Unlock()
	q.notEmpty.Signal()
	return true
}

// TryPop dequeues the oldest item without blocking; ok is false when the
// queue is empty.
func (q *Queue[T]) TryPop() (v T, ok bool) {
	q.mu.Lock()
	if q.items.n == 0 {
		q.mu.Unlock()
		return v, false
	}
	v = q.items.Pop()
	q.mu.Unlock()
	q.notFull.Signal()
	return v, true
}

// Pop dequeues the oldest item, parking r while the queue is empty. ok is
// false when the queue is closed and drained.
func (q *Queue[T]) Pop(r *Runner) (v T, ok bool) {
	q.mu.Lock()
	for q.items.n == 0 && !q.closed {
		q.notEmpty.Wait(r)
	}
	if q.items.n == 0 {
		q.mu.Unlock()
		return v, false
	}
	v = q.items.Pop()
	q.mu.Unlock()
	q.notFull.Signal()
	return v, true
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.items.n
}

// Close marks the queue closed; blocked Pops drain remaining items and then
// return ok=false, and blocked Pushes panic.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.notEmpty.Broadcast()
	q.notFull.Broadcast()
}

// Resource models a shared service center (a PCIe link, a NAND channel bus,
// a CPU core pool): capacity units, admitted in Semaphore's order — a
// caller that finds a unit free takes it, and a freed unit goes to whichever
// of its longest and its most recent waiter runs first, not to the head of
// a FIFO — with busy-time accounting for utilization measurements.
type Resource struct {
	sem *Semaphore

	mu     sync.Mutex
	busyNS int64 // cumulative unit-nanoseconds of service
	fgWait int   // foreground callers currently queued for admission
	bgWait int   // background callers parked on bgCond
	bgCond *Cond // background admission: re-checked on releases and fg departures
}

// NewResource returns a resource with the given parallel capacity.
func NewResource(capacity int, label string) *Resource {
	res := &Resource{sem: NewSemaphore(capacity, label)}
	res.bgCond = NewCond(&res.mu, label+".bg")
	return res
}

// Use occupies one unit for duration d of virtual time: it queues for
// admission, holds the unit while sleeping d, then releases it.
func (res *Resource) Use(r *Runner, d Duration) {
	if d <= 0 {
		return
	}
	res.mu.Lock()
	res.fgWait++
	res.mu.Unlock()
	res.sem.Acquire(r, 1)
	res.mu.Lock()
	res.fgWait--
	bg := res.bgWait > 0
	res.mu.Unlock()
	if bg {
		res.bgCond.Broadcast() // a free unit may remain for a background waiter
	}
	res.hold(r, d)
}

// hold keeps an admitted unit busy for d, releases it and lets background
// waiters re-check. bgWait is read after the release and under res.mu, so
// a background caller either sees the freed unit or is already counted.
func (res *Resource) hold(r *Runner, d Duration) {
	r.Sleep(d)
	res.sem.Release(1)
	res.mu.Lock()
	res.busyNS += int64(d)
	bg := res.bgWait > 0
	res.mu.Unlock()
	if bg {
		res.bgCond.Broadcast()
	}
}

// UseBackground occupies one unit for d like Use, but at background
// priority: it is admitted only when a unit is free AND no foreground
// caller is queued, so bulk device-internal work (offloaded merges)
// soaks up idle capacity without ever pushing host I/O back in line. An
// admitted operation still runs to completion — a foreground arrival
// waits at most one service time, the same bound it has against other
// foreground traffic.
func (res *Resource) UseBackground(r *Runner, d Duration) {
	if d <= 0 {
		return
	}
	res.mu.Lock()
	for res.fgWait > 0 || !res.sem.TryAcquire(1) {
		res.bgWait++
		res.bgCond.Wait(r)
		res.bgWait--
	}
	res.mu.Unlock()
	res.hold(r, d)
}

// Cap returns the resource's parallel capacity.
func (res *Resource) Cap() int { return res.sem.Cap() }

// BusyNS returns cumulative busy unit-nanoseconds; sampling it at intervals
// yields utilization: delta / (interval * capacity).
func (res *Resource) BusyNS() int64 {
	res.mu.Lock()
	defer res.mu.Unlock()
	return res.busyNS
}
