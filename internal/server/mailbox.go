package server

import (
	"kvaccel/internal/vclock"
)

// mailbox is the server's close-tolerant work queue: bounded producers
// use tryPush (a full or closed box refuses, it never parks — that
// refusal IS the queue-depth admission gate), unbounded producers use
// push (reply queues must never backpressure the batcher into
// head-of-line blocking across clients), and consumers park in pop.
// Close wakes parked consumers, which drain the backlog and then see
// ok=false; unlike vclock.Queue, nothing ever panics on a closed box, so
// connection teardown races are safe by construction.
type mailbox[T any] struct {
	cap int // <= 0: unbounded

	items    vclock.Ring[T] // popping moves nothing
	closed   bool
	notEmpty *vclock.Cond
}

func newMailbox[T any](capacity int, label string) *mailbox[T] {
	return &mailbox[T]{cap: capacity, notEmpty: vclock.NewCond(label)}
}

// tryPush enqueues v unless the box is closed or full.
func (m *mailbox[T]) tryPush(v T) bool {
	if m.closed || (m.cap > 0 && m.items.Len() >= m.cap) {
		return false
	}
	m.items.Push(v)
	m.notEmpty.Signal()
	return true
}

// push enqueues v regardless of capacity; on a closed box the item is
// dropped and push reports false.
func (m *mailbox[T]) push(v T) bool {
	if m.closed {
		return false
	}
	m.items.Push(v)
	m.notEmpty.Signal()
	return true
}

// pop dequeues the oldest item, parking r while the box is empty. ok is
// false once the box is closed and drained.
func (m *mailbox[T]) pop(r *vclock.Runner) (v T, ok bool) {
	for {
		if v, ok, done := m.popStep(r); done {
			return v, ok
		}
		r.Park()
	}
}

// popStep is pop as a stepped primitive (see vclock.Clock.GoTask): done
// with pop's results once the box has an item or is closed and drained,
// and otherwise r is parked until it may.
func (m *mailbox[T]) popStep(r *vclock.Runner) (v T, ok, done bool) {
	if !m.notEmpty.WaitUntilStep(r, boxReady, m) {
		return v, false, false
	}
	v, ok = m.tryPop()
	return v, ok, true
}

// boxReady is pop's wait. A generic function's value is made anew where it
// is used, so the predicate reaches the box through an interface.
func boxReady(m any) bool { return m.(interface{ ready() bool }).ready() }

func (m *mailbox[T]) ready() bool { return m.items.Len() > 0 || m.closed }

// tryPop dequeues without parking.
func (m *mailbox[T]) tryPop() (v T, ok bool) {
	if m.items.Len() == 0 {
		return v, false
	}
	v = m.items.Pop()
	return v, true
}

// close marks the box closed and wakes every parked consumer.
func (m *mailbox[T]) close() {
	m.closed = true
	m.notEmpty.Broadcast()
}
