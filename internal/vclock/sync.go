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
		grown := make([]T, max(4, 2*len(f.buf)))
		k := copy(grown, f.buf[f.head:])
		copy(grown[k:], f.buf[:f.head])
		f.buf, f.head = grown, 0
	}
	f.buf[(f.head+f.n)&(len(f.buf)-1)] = v
	f.n++
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
// device dies, queue slots). Admission is broadcast-and-recheck, not FIFO:
// Release wakes every waiter and the first to re-take the lock wins the
// freed units, the rest park again. Which one that is depends on the Go
// scheduler (on one P, usually the waiter woken last).
type Semaphore struct {
	mu    sync.Mutex
	avail int
	cap   int
	cond  *Cond
}

// NewSemaphore returns a semaphore with the given capacity.
func NewSemaphore(capacity int, label string) *Semaphore {
	s := &Semaphore{avail: capacity, cap: capacity}
	s.cond = NewCond(&s.mu, label)
	return s
}

// Cap returns the semaphore's capacity.
func (s *Semaphore) Cap() int { return s.cap }

// Acquire takes n units, parking r until they are available.
func (s *Semaphore) Acquire(r *Runner, n int) {
	s.mu.Lock()
	for s.avail < n {
		s.cond.Wait(r)
	}
	s.avail -= n
	s.mu.Unlock()
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

// Release returns n units and wakes waiters.
func (s *Semaphore) Release(n int) {
	s.mu.Lock()
	s.avail += n
	if s.avail > s.cap {
		s.mu.Unlock()
		panic("vclock: semaphore over-release")
	}
	s.mu.Unlock()
	s.cond.Broadcast()
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
// a CPU core pool): capacity units served FIFO, with busy-time accounting
// for utilization measurements.
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

// InUse returns the number of units currently occupied.
func (res *Resource) InUse() int { return res.sem.InUse() }

// BusyNS returns cumulative busy unit-nanoseconds; sampling it at intervals
// yields utilization: delta / (interval * capacity).
func (res *Resource) BusyNS() int64 {
	res.mu.Lock()
	defer res.mu.Unlock()
	return res.busyNS
}
