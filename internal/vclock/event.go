package vclock

import (
	"slices"
	"sync"
)

// Event is a clock-aware, level-triggered flag: once Set, it stays set
// and every past or future wait returns immediately. Its distinguishing
// feature over Cond is the timed wait — WaitFor parks the runner until
// the event is raised *or* a virtual-time timeout elapses, whichever
// comes first — which is what periodic background loops need to both
// keep their cadence and react promptly to shutdown.
type Event struct {
	label string

	mu      sync.Mutex
	set     bool
	waiters []*Runner
}

// NewEvent returns an unset event. label appears in deadlock reports.
func NewEvent(label string) *Event {
	return &Event{label: label}
}

// IsSet reports whether the event has been raised.
func (e *Event) IsSet() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.set
}

// Set raises the event and wakes every waiting runner. It is idempotent
// and safe to call from any goroutine, runner or not.
func (e *Event) Set() {
	e.mu.Lock()
	// e.mu is held across the wakes so a concurrently timing-out waiter
	// cannot finish WaitFor (it must take e.mu to deregister) and re-park
	// elsewhere while we still hold a stale reference to it; for such a
	// waiter wakeParkedIfPresent is a harmless no-op.
	defer e.mu.Unlock()
	if e.set {
		return
	}
	e.set = true
	for _, r := range e.waiters {
		r.clock.wakeParkedIfPresent(r)
	}
	e.waiters = nil
}

// WaitFor parks r until the event is set or virtual duration d elapses,
// and reports whether the event was set. Registration and parking are
// atomic under e.mu (mirroring Cond.Wait), so a Set between them cannot
// be lost.
func (e *Event) WaitFor(r *Runner, d Duration) bool {
	e.mu.Lock()
	if e.set {
		e.mu.Unlock()
		return true
	}
	e.waiters = append(e.waiters, r)
	r.clock.parkOnTimed(r, e.label, d)
	e.mu.Unlock()
	<-r.wake
	e.mu.Lock()
	// On the timeout path we are still registered; Set removes the
	// runners it signals. slices.Delete clears the tail slot it vacates, so
	// the backing array, which the next WaitFor reuses, does not pin r.
	if i := slices.Index(e.waiters, r); i >= 0 {
		e.waiters = slices.Delete(e.waiters, i, i+1)
	}
	set := e.set
	e.mu.Unlock()
	return set
}
