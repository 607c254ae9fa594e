// Package faults implements a deterministic, seeded fault plan for the
// simulated device stack. The NVMe dispatcher, the NAND array, and the
// FTL consult one shared Plan on every operation; the plan decides —
// reproducibly, from its seed — whether that operation suffers a media
// error, a timeout, or a latency spike, and whether the device has been
// power-cut (severed) at this virtual instant.
//
// A Plan is pure policy: it never sleeps or fails anything itself. The
// consulting layer applies the returned Outcome (sleep Delay on the
// caller's runner, complete the command with Err). That keeps every
// layer's timing model intact and makes the plan trivially reusable
// across the dispatcher (per-opcode scoping) and the NAND/FTL path
// (LPN-extent scoping, i.e. region-scoped faults).
package faults

import (
	"errors"
	"math/rand"
	"time"

	"kvaccel/internal/vclock"
)

// Sentinel errors injected by a Plan. Host layers classify retries with
// Transient; ErrDeviceGone is terminal until the device is re-attached.
var (
	// ErrMedia is an uncorrectable media error (NVMe status 0x281).
	ErrMedia = errors.New("faults: media error")
	// ErrTimeout is a command that exceeded its host timeout.
	ErrTimeout = errors.New("faults: command timeout")
	// ErrDeviceGone is returned for commands in flight or submitted after
	// a power cut severed the device.
	ErrDeviceGone = errors.New("faults: device gone (power cut)")
)

// Transient reports whether err is worth retrying: injected media
// errors and timeouts are transient; a severed device is not.
func Transient(err error) bool {
	return errors.Is(err, ErrMedia) || errors.Is(err, ErrTimeout)
}

// Class is the kind of fault a Rule injects.
type Class int

const (
	// MediaError completes the operation with ErrMedia.
	MediaError Class = iota
	// Timeout delays the operation by Rule.Delay, then fails it with
	// ErrTimeout.
	Timeout
	// LatencySpike delays the operation by Rule.Delay but lets it
	// succeed.
	LatencySpike
)

func (c Class) String() string {
	switch c {
	case MediaError:
		return "media"
	case Timeout:
		return "timeout"
	case LatencySpike:
		return "latency"
	}
	return "unknown"
}

// Extent is a half-open [Start, End) range of logical or physical page
// numbers. The zero Extent matches every address, including the
// address-less (-1) consultations the NVMe dispatcher makes.
type Extent struct{ Start, End int64 }

func (e Extent) matches(lpn int64) bool {
	if e.Start == 0 && e.End == 0 {
		return true
	}
	return lpn >= e.Start && lpn < e.End
}

// Rule is one fault-injection clause. A rule fires when its opcode and
// scope match and either its deterministic Every counter comes due or a
// seeded coin with probability Prob lands. Count bounds total fires
// (0 = unlimited).
type Rule struct {
	// Op is the operation name to match ("KV_PUT", "WRITE", "NAND_PROG",
	// ...); empty matches every operation.
	Op string
	// Class selects the injected fault.
	Class Class
	// Scope restricts the rule to an address extent; the zero Extent is
	// unscoped. NVMe-level consultations carry no address and only match
	// unscoped rules.
	Scope Extent
	// Every fires the rule on each Every-th matching operation
	// (deterministic). 0 disables the counter.
	Every int
	// Prob fires the rule with this probability per matching operation,
	// drawn from the plan's seeded generator. Ignored when Every > 0.
	Prob float64
	// Count caps the number of fires; 0 is unlimited.
	Count int
	// Delay is the injected latency for Timeout and LatencySpike rules.
	Delay time.Duration

	seen  int
	fired int
}

// Outcome is a Plan's verdict for one operation. The consulting layer
// sleeps Delay first (if any), then completes with Err (if any).
type Outcome struct {
	Err   error
	Delay time.Duration
}

// Plan is a seeded fault schedule. The zero value and the nil plan are
// both inert (every Decide returns the zero Outcome); layers hold a
// *Plan and never need to nil-check.
type Plan struct {
	rng      *rand.Rand
	rules    []*Rule
	injected map[string]int64
	total    int64

	cutAt    vclock.Time
	cutArmed bool
}

// NewPlan returns an empty plan whose probabilistic decisions and torn-
// write geometry derive deterministically from seed.
func NewPlan(seed int64) *Plan {
	return &Plan{
		rng:      rand.New(rand.NewSource(seed)),
		injected: make(map[string]int64),
	}
}

// AddRule appends a fault rule to the plan.
func (p *Plan) AddRule(r Rule) {
	rc := r
	p.rules = append(p.rules, &rc)
}

// Decide consults the plan for one operation. lpn is the logical or
// physical page the operation touches, or -1 when the operation has no
// single address (whole commands at the NVMe layer); address-less
// consultations match only unscoped rules. The first firing rule wins.
func (p *Plan) Decide(op string, lpn int64) Outcome {
	if p == nil {
		return Outcome{}
	}
	for _, r := range p.rules {
		if r.Op != "" && r.Op != op {
			continue
		}
		if lpn < 0 {
			if r.Scope != (Extent{}) {
				continue
			}
		} else if !r.Scope.matches(lpn) {
			continue
		}
		if r.Count > 0 && r.fired >= r.Count {
			continue
		}
		r.seen++
		fire := false
		if r.Every > 0 {
			fire = r.seen%r.Every == 0
		} else if r.Prob > 0 {
			fire = p.rng.Float64() < r.Prob
		}
		if !fire {
			continue
		}
		r.fired++
		p.injected[op]++
		p.total++
		switch r.Class {
		case MediaError:
			return Outcome{Err: ErrMedia}
		case Timeout:
			return Outcome{Err: ErrTimeout, Delay: r.Delay}
		case LatencySpike:
			return Outcome{Delay: r.Delay}
		}
	}
	return Outcome{}
}

// ArmPowerCut schedules a device sever at virtual time at. The device
// layer polls NextPowerCut and performs the sever; the plan only
// records the schedule.
func (p *Plan) ArmPowerCut(at vclock.Time) {
	p.cutAt = at
	p.cutArmed = true
}

// NextPowerCut returns the armed power-cut instant, if any.
func (p *Plan) NextPowerCut() (vclock.Time, bool) {
	if p == nil {
		return 0, false
	}
	return p.cutAt, p.cutArmed
}

// DisarmPowerCut clears the armed cut (called once the sever fires).
func (p *Plan) DisarmPowerCut() {
	if p == nil {
		return
	}
	p.cutArmed = false
}

// Injected returns a copy of the per-operation injected-fault counters.
func (p *Plan) Injected() map[string]int64 {
	if p == nil {
		return nil
	}
	out := make(map[string]int64, len(p.injected))
	for k, v := range p.injected {
		out[k] = v
	}
	return out
}

// TotalInjected returns the total number of injected faults.
func (p *Plan) TotalInjected() int64 {
	if p == nil {
		return 0
	}
	return p.total
}

// TornLength returns a seeded fragment length in [0, n]: how many bytes
// of an interrupted append actually reached media before the cut.
func (p *Plan) TornLength(n int) int {
	if p == nil || n <= 0 {
		return 0
	}
	return p.rng.Intn(n + 1)
}

// CorruptByte flips one seeded bit in b (if non-empty): the torn tail
// of a power-cut append is not just short but garbled, which is what
// forces recovery to trust checksums rather than record framing.
func (p *Plan) CorruptByte(b []byte) {
	if p == nil || len(b) == 0 {
		return
	}
	i := p.rng.Intn(len(b))
	b[i] ^= 1 << uint(p.rng.Intn(8))
}

// RetryPolicy is the host-side answer to injected faults: how many
// attempts a device command gets and how the backoff between attempts
// grows. The zero value disables retries (one attempt, no backoff).
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per command (>= 1).
	MaxAttempts int
	// Backoff is the sleep before the first retry; it doubles per retry.
	Backoff time.Duration
	// BackoffMax caps the doubling.
	BackoffMax time.Duration
}

// DefaultRetryPolicy retries transient errors three times with a short
// exponential backoff — enough to ride out injected media errors
// without hiding a genuinely dead device.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, Backoff: 50 * time.Microsecond, BackoffMax: time.Millisecond}
}

// Attempts returns MaxAttempts clamped to at least one attempt.
func (rp RetryPolicy) Attempts() int {
	if rp.MaxAttempts < 1 {
		return 1
	}
	return rp.MaxAttempts
}

// Delay returns the backoff before retry number retry (1-based).
func (rp RetryPolicy) Delay(retry int) time.Duration {
	if rp.Backoff <= 0 {
		return 0
	}
	d := rp.Backoff
	for i := 1; i < retry; i++ {
		d *= 2
		if rp.BackoffMax > 0 && d >= rp.BackoffMax {
			return rp.BackoffMax
		}
	}
	if rp.BackoffMax > 0 && d > rp.BackoffMax {
		d = rp.BackoffMax
	}
	return d
}
