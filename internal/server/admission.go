package server

import (
	"time"

	"kvaccel/internal/vclock"
)

// admission is the serving tier's overload gate: a virtual-time token
// bucket (capacity-calibrated rate) with per-tenant fairness accounting.
// It is the first of the two shed points — the second is the per-shard
// batcher inbox, whose bounded tryPush refuses when queue depth says the
// engine is falling behind. Both shed with RETRY_LATER before the engine
// ever sees the request, so the Main-LSM's own stall machinery
// (NoStallWait + Dev-LSM failover) stays a second line of defense that
// admission should keep idle.
//
// Fairness: admissions are counted per tenant over a short rolling
// window. While tokens are scarce (bucket under its low-water mark), a
// tenant already holding more than its fair share of the window's
// admissions is shed first, so one hot tenant cannot starve the rest —
// the classic max-min-ish guard, accounted rather than enforced with
// per-tenant queues.
type admission struct {
	rate     float64 // tokens (ops) per virtual second; <= 0 disables the bucket
	burst    float64
	lowWater float64
	tenants  int

	tokens      float64
	last        vclock.Time
	windowStart vclock.Time
	windowAdm   []float64 // per-tenant admissions in the current window
	windowTotal float64

	admitted []int64 // per-tenant lifetime admissions
	shed     []int64 // per-tenant lifetime sheds (this gate only)
}

// admissionWindow is the fairness accounting window (virtual time).
const admissionWindow = 10 * time.Millisecond

// newAdmission builds the gate for rate ops per virtual second; the
// bucket holds a hundredth of a second's worth, at least 64 tokens.
func newAdmission(rate float64, tenants int) *admission {
	burst := max(float64(int(rate/100)), 64)
	return &admission{
		rate:      rate,
		burst:     burst,
		lowWater:  burst / 4,
		tenants:   tenants,
		tokens:    burst,
		windowAdm: make([]float64, tenants),
		admitted:  make([]int64, tenants),
		shed:      make([]int64, tenants),
	}
}

// admit charges one op for tenant at virtual time now, reporting whether
// the request may proceed.
func (a *admission) admit(now vclock.Time, tenant int) bool {
	if a == nil || a.rate <= 0 {
		return true
	}
	t := tenant % a.tenants
	// Refill on virtual time.
	if now > a.last {
		a.tokens += a.rate * now.Sub(a.last).Seconds()
		if a.tokens > a.burst {
			a.tokens = a.burst
		}
		a.last = now
	}
	// Roll the fairness window.
	if now.Sub(a.windowStart) > admissionWindow {
		for i := range a.windowAdm {
			a.windowAdm[i] = 0
		}
		a.windowTotal = 0
		a.windowStart = now
	}
	if a.tokens < 1 {
		a.shed[t]++
		return false
	}
	// Scarcity: tenants over twice their fair share yield first.
	if a.tokens < a.lowWater && a.tenants > 1 && a.windowTotal >= float64(a.tenants) {
		fair := a.windowTotal / float64(a.tenants)
		if a.windowAdm[t] > 2*fair {
			a.shed[t]++
			return false
		}
	}
	a.tokens--
	a.windowAdm[t]++
	a.windowTotal++
	a.admitted[t]++
	return true
}
