package vclock

import "slices"

// Event is a clock-aware, level-triggered flag: once Set, it stays set
// and every wait returns immediately until Reset lowers it. Unlike a Cond
// it has a timed wait — WaitFor parks the runner until the event is raised
// or a virtual-time timeout elapses, whichever comes first — so a loop
// can keep its cadence and still react at once to what it waits for.
type Event struct {
	label   string
	set     bool
	waiters []*Runner
}

// NewEvent returns an unset event. label appears in deadlock reports.
func NewEvent(label string) *Event { return &Event{label: label} }

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
	clear(e.waiters)
	e.waiters = e.waiters[:0]
}

// Reset lowers the event so that it can time one more wait: a runner that
// waits over and over keeps one event instead of allocating one each time.
// It panics if a runner is waiting. A runner Set has woken is no longer
// waiting, but its WaitFor reports the event as it stands when the runner
// resumes, so the runner that waits is the one to reset.
func (e *Event) Reset() {
	if len(e.waiters) > 0 {
		panic("vclock: Reset of event " + e.label + " with a runner waiting")
	}
	e.set = false
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
