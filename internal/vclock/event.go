package vclock

import "slices"

// Event is a clock-aware, level-triggered flag: once Set, it stays set
// and every past or future wait returns immediately. Its distinguishing
// feature over Cond is the timed wait — WaitFor parks the runner until
// the event is raised *or* a virtual-time timeout elapses, whichever
// comes first — which is what periodic background loops need to both
// keep their cadence and react promptly to shutdown.
type Event struct {
	label   string
	set     bool
	waiters []*Runner
}

// NewEvent returns an unset event. label appears in deadlock reports.
func NewEvent(label string) *Event {
	return &Event{label: label}
}

// IsSet reports whether the event has been raised.
func (e *Event) IsSet() bool { return e.set }

// Set raises the event and wakes every waiting runner. It is idempotent.
// A waiter whose timeout fired first is runnable already and left alone.
func (e *Event) Set() {
	if e.set {
		return
	}
	e.set = true
	for _, r := range e.waiters {
		r.clock.wakeParked(r)
	}
	e.waiters = nil
}

// WaitFor parks r until the event is set or virtual duration d elapses,
// and reports whether the event was set.
func (e *Event) WaitFor(r *Runner, d Duration) bool {
	if e.set {
		return true
	}
	e.waiters = append(e.waiters, r)
	r.clock.parkOnTimed(r, e.label, d)
	// On the timeout path we are still registered; Set removes the
	// runners it signals. slices.Delete clears the tail slot it vacates, so
	// the backing array, which the next WaitFor reuses, does not pin r.
	if i := slices.Index(e.waiters, r); i >= 0 {
		e.waiters = slices.Delete(e.waiters, i, i+1)
	}
	return e.set
}
