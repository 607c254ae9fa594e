package server

import (
	"sync"

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
	label string
	cap   int // <= 0: unbounded

	mu       sync.Mutex
	items    vclock.Ring[T] // popping moves nothing
	closed   bool
	notEmpty *vclock.Cond
}

func newMailbox[T any](capacity int, label string) *mailbox[T] {
	m := &mailbox[T]{label: label, cap: capacity}
	m.notEmpty = vclock.NewCond(&m.mu, label)
	return m
}

// tryPush enqueues v unless the box is closed or full.
func (m *mailbox[T]) tryPush(v T) bool {
	m.mu.Lock()
	if m.closed || (m.cap > 0 && m.items.Len() >= m.cap) {
		m.mu.Unlock()
		return false
	}
	m.items.Push(v)
	m.mu.Unlock()
	m.notEmpty.Signal()
	return true
}

// push enqueues v regardless of capacity; on a closed box the item is
// dropped and push reports false.
func (m *mailbox[T]) push(v T) bool {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return false
	}
	m.items.Push(v)
	m.mu.Unlock()
	m.notEmpty.Signal()
	return true
}

// pop dequeues the oldest item, parking r while the box is empty. ok is
// false once the box is closed and drained.
func (m *mailbox[T]) pop(r *vclock.Runner) (v T, ok bool) {
	m.mu.Lock()
	for m.items.Len() == 0 && !m.closed {
		m.notEmpty.Wait(r)
	}
	if m.items.Len() == 0 {
		m.mu.Unlock()
		return v, false
	}
	v = m.items.Pop()
	m.mu.Unlock()
	return v, true
}

// tryPop dequeues without parking.
func (m *mailbox[T]) tryPop() (v T, ok bool) {
	m.mu.Lock()
	if m.items.Len() == 0 {
		m.mu.Unlock()
		return v, false
	}
	v = m.items.Pop()
	m.mu.Unlock()
	return v, true
}

func (m *mailbox[T]) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.items.Len()
}

// close marks the box closed and wakes every parked consumer.
func (m *mailbox[T]) close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.notEmpty.Broadcast()
}
