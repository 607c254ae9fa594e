// Package linger is the adaptive linger window of the serving tier's
// batchers (write batches and multi-get chunks). A runner that has just
// claimed the head of a queue may hold its claim open for a short window
// so that more requests join it and share one engine crossing. Whether
// the wait is worth it is decided from what recent claims did:
//
//   - none when the claim is already full: the caller says so;
//   - none once an EWMA of recent claim sizes reaches the target:
//     arrivals alone are forming batches, and the wait only adds latency;
//   - none after futileLimit lingered claims in a row still went out
//     alone, until a claim of two or more forms on its own: a lone
//     client stops paying the window after three claims.
//
// A producer that fills the queue past the caller's wake depth cuts an
// open window short.
package linger

import (
	"time"

	"kvaccel/internal/vclock"
)

// futileLimit is how many lingered claims in a row may go out alone
// before the window stays shut.
const futileLimit = 3

// Window is one queue's linger window and the record of its recent
// claims that decides whether to open it.
type Window struct {
	ev     *vclock.Event // raised to cut an open window short
	length time.Duration // the window, when one is worth opening
	target float64       // claim-size EWMA at which lingering stops paying
	recent float64       // EWMA of recent claim sizes
	futile int           // lingered claims in a row that went out alone
}

// New returns a window of the given length — zero never lingers — that
// stops opening once recent claims average target requests. label names
// the window's event in deadlock reports.
func New(label string, length time.Duration, target float64) *Window {
	return &Window{ev: vclock.NewEvent(label), length: length, target: target}
}

// Len returns how long a runner that has just claimed should hold its
// claim open: zero when the claim is already full, when recent claims
// reach the target, or when lingering has kept being futile.
func (w *Window) Len(full bool) time.Duration {
	if full || w.futile >= futileLimit || w.recent >= w.target {
		return 0
	}
	return w.length
}

// Wait opens the window and parks r until CutShort or until d elapses.
func (w *Window) Wait(r *vclock.Runner, d time.Duration) {
	// One event serves every window: lowered here, whether the last
	// window was cut short or ran to its end.
	w.ev.Reset()
	w.ev.WaitFor(r, d)
}

// CutShort ends an open window now. With none open it raises nothing
// anyone reads: Wait lowers the event first.
func (w *Window) CutShort() { w.ev.Set() }

// Note feeds the policy the size of a claim just made, and whether its
// runner lingered before making it.
func (w *Window) Note(n int, lingered bool) {
	w.recent = 0.75*w.recent + 0.25*float64(n)
	if n >= 2 {
		w.futile = 0
	} else if lingered {
		w.futile++
	}
}
