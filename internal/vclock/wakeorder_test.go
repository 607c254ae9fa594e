package vclock

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// The wake-order property test runs 64 runners, each through a seeded
// script of timed sleeps, event waits (set or timing out) and condition
// waits (ended by Signal, Broadcast or a SignalAt due later), against the
// real kernel, and replays the same scripts through
// woModel — a single-threaded reference that keeps its timers in a plain
// list, takes them in (at, seq) order and drops stale conditional ones.
// Every return from a primitive is logged as (now, runner, op, result);
// the two logs must be equal.
//
// Scripts are built so that no outcome depends on which of several
// same-instant runners the Go scheduler runs first: whoever ends a
// runner's wait is a helper runner of its own, started before the wait,
// and a timeout never ties with its event's setter. Entries of one
// instant are therefore compared as a set (sorted by runner), while the
// real log's instants must come out in time order by themselves.

const woTick = time.Microsecond

type woKind int

const (
	woSleep      woKind = iota // Sleep(d)
	woSleepUntil               // SleepUntil(now+d), d may point into the past
	woWaitFor                  // Event.WaitFor(d); a helper sets the event after s
	woCondOwn                  // wait on the runner's own Cond; a helper Signals after s
	woCondShared               // wait on one of four shared Conds; a helper Broadcasts after s
	woCondAt                   // wait on the runner's own Cond; a helper calls SignalAt(now+d) after s
	woKinds
)

type woOp struct {
	kind woKind
	d, s int // ticks
	cond int // shared cond index
}

type woEntry struct {
	now    Time
	runner int
	op     int
	set    bool // WaitFor's result
}

func (e woEntry) String() string {
	return fmt.Sprintf("t=%v r%d op%d set=%v", e.now, e.runner, e.op, e.set)
}

const (
	woRunners = 64
	woOps     = 60
	woConds   = 4
)

func woScript(seed int64, runner int) []woOp {
	rng := rand.New(rand.NewSource(seed<<8 + int64(runner)))
	ops := make([]woOp, woOps)
	for i := range ops {
		op := woOp{kind: woKind(rng.Intn(int(woKinds)))}
		switch op.kind {
		case woSleep:
			op.d = rng.Intn(4)
		case woSleepUntil:
			op.d = rng.Intn(6) - 2
		case woWaitFor:
			op.d = 1 + rng.Intn(4)
			if op.s = rng.Intn(6); op.s == op.d {
				op.s++ // a tie would be decided by timer seq, i.e. by the scheduler
			}
		case woCondOwn, woCondShared:
			op.s = rng.Intn(4)
			op.cond = rng.Intn(woConds)
		case woCondAt:
			op.s = rng.Intn(4)
			op.d = rng.Intn(4) // 0: due now, which is a plain Signal
		}
		ops[i] = op
	}
	return ops
}

// woModel is the reference kernel.
type woModel struct {
	now     Time
	seq     uint64
	timers  []woTimer
	runners []woRunner
	log     []woEntry
}

type woTimer struct {
	at     Time
	seq    uint64
	runner int
	gen    uint64
	cond   bool // a WaitFor timeout: fires only into the park it was armed for
	helper bool // a helper's wake-up: ends the runner's wait if it is still that wait
}

type woRunner struct {
	script []woOp
	pc     int
	gen    uint64
	parked bool
}

func (m *woModel) arm(t woTimer, ticks int) {
	m.seq++
	t.at, t.seq = m.now.Add(Duration(ticks)*woTick), m.seq
	m.timers = append(m.timers, t)
}

// issue starts runner i's next op, if it has one.
func (m *woModel) issue(i int) {
	r := &m.runners[i]
	if r.pc == len(r.script) {
		return
	}
	switch op := r.script[r.pc]; op.kind {
	case woSleep:
		m.arm(woTimer{runner: i}, op.d)
	case woSleepUntil:
		m.arm(woTimer{runner: i}, max(op.d, 0))
	case woWaitFor:
		r.gen++
		r.parked = true
		m.arm(woTimer{runner: i, gen: r.gen, helper: true}, op.s)
		m.arm(woTimer{runner: i, gen: r.gen, cond: true}, op.d)
	case woCondOwn, woCondShared, woCondAt:
		r.gen++
		r.parked = true
		m.arm(woTimer{runner: i, gen: r.gen, helper: true}, op.s)
	}
}

func (m *woModel) run() {
	for i := range m.runners {
		m.issue(i)
	}
	for len(m.timers) > 0 {
		sort.Slice(m.timers, func(a, b int) bool {
			if m.timers[a].at != m.timers[b].at {
				return m.timers[a].at < m.timers[b].at
			}
			return m.timers[a].seq < m.timers[b].seq
		})
		t := m.timers[0]
		m.timers = m.timers[1:]
		m.now = t.at
		r := &m.runners[t.runner]
		if t.cond || t.helper {
			if !r.parked || r.gen != t.gen {
				continue // stale: the other side of the race already ended this park
			}
			r.parked = false
			if op := r.script[r.pc]; t.helper && op.kind == woCondAt && op.d > 0 {
				// SignalAt: the condition park becomes a plain timer,
				// armed now, which nothing can make stale.
				m.arm(woTimer{runner: t.runner}, op.d)
				continue
			}
		}
		m.log = append(m.log, woEntry{now: m.now, runner: t.runner, op: r.pc, set: t.helper && r.script[r.pc].kind == woWaitFor})
		r.pc++
		m.issue(t.runner)
	}
}

func woSorted(log []woEntry) []woEntry {
	out := append([]woEntry(nil), log...)
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].now != out[b].now {
			return out[a].now < out[b].now
		}
		if out[a].runner != out[b].runner {
			return out[a].runner < out[b].runner
		}
		return out[a].op < out[b].op
	})
	return out
}

// woReal runs the scripts on a real Clock and returns the log in the
// order the runners wrote it.
func woReal(t *testing.T, scripts [][]woOp) []woEntry {
	c := New()
	deadlocked := trapDeadlock(c)

	var logMu sync.Mutex
	var log []woEntry

	var sharedMu [woConds]sync.Mutex
	var shared [woConds]*Cond
	for k := range shared {
		shared[k] = NewCond(&sharedMu[k], fmt.Sprintf("shared%d", k))
	}

	for i, script := range scripts {
		c.Go(fmt.Sprintf("r%d", i), func(r *Runner) {
			var ownMu sync.Mutex
			own := NewCond(&ownMu, "own")
			for pc, op := range script {
				set := false
				switch op.kind {
				case woSleep:
					r.Sleep(Duration(op.d) * woTick)
				case woSleepUntil:
					r.SleepUntil(r.Now().Add(Duration(op.d) * woTick))
				case woWaitFor:
					ev := NewEvent("ev")
					c.Go("setter", func(h *Runner) {
						h.Sleep(Duration(op.s) * woTick)
						ev.Set()
					})
					set = ev.WaitFor(r, Duration(op.d)*woTick)
				case woCondOwn, woCondShared:
					mu, cond := &ownMu, own
					if op.kind == woCondShared {
						mu, cond = &sharedMu[op.cond], shared[op.cond]
					}
					ready := false
					c.Go("waker", func(h *Runner) {
						h.Sleep(Duration(op.s) * woTick)
						mu.Lock()
						ready = true
						mu.Unlock()
						if op.kind == woCondShared {
							cond.Broadcast() // other runners' waits re-check and park again
						} else {
							cond.Signal()
						}
					})
					mu.Lock()
					for !ready {
						cond.Wait(r)
					}
					mu.Unlock()
				case woCondAt:
					ready := false
					c.Go("waker", func(h *Runner) {
						h.Sleep(Duration(op.s) * woTick)
						ownMu.Lock()
						ready = true
						ownMu.Unlock()
						own.SignalAt(h.Now().Add(Duration(op.d) * woTick))
					})
					ownMu.Lock()
					for !ready {
						own.Wait(r)
					}
					ownMu.Unlock()
				}
				logMu.Lock()
				log = append(log, woEntry{now: r.Now(), runner: i, op: pc, set: set})
				logMu.Unlock()
			}
		})
	}
	join(t, c, deadlocked, "kernel lost a wake-up")
	return log
}

func TestWakeOrderMatchesReferenceModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		scripts := make([][]woOp, woRunners)
		model := woModel{runners: make([]woRunner, woRunners)}
		for i := range scripts {
			scripts[i] = woScript(seed, i)
			model.runners[i].script = scripts[i]
		}
		model.run()
		want := woSorted(model.log)
		if len(want) != woRunners*woOps {
			t.Fatalf("seed %d: model finished %d ops, want %d", seed, len(want), woRunners*woOps)
		}

		observed := woReal(t, scripts)
		for i := 1; i < len(observed); i++ {
			if observed[i].now < observed[i-1].now {
				t.Fatalf("seed %d: log entry %d (%v) is earlier than its predecessor (%v)", seed, i, observed[i], observed[i-1])
			}
		}
		got := woSorted(observed)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d wakes logged, model has %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: wake %d is %v, model says %v", seed, i, got[i], want[i])
			}
		}
	}
}

// TestWakeOrderTimerHeap checks the one thing the scripts above cannot
// see from outside: among timers of one instant the kernel sends wake-ups
// in seq order. Pushes and pops are interleaved at random; pops must
// come out exactly as a sort by (at, seq) of what is in the heap.
func TestWakeOrderTimerHeap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var h timerHeap
		var ref []timer
		var seq uint64
		for step := 0; step < 2000; step++ {
			if len(ref) == 0 || rng.Intn(5) < 3 {
				seq++
				tm := timer{at: Time(rng.Intn(8)), seq: seq}
				h.push(tm)
				ref = append(ref, tm)
				continue
			}
			sort.Slice(ref, func(a, b int) bool {
				if ref[a].at != ref[b].at {
					return ref[a].at < ref[b].at
				}
				return ref[a].seq < ref[b].seq
			})
			if got := h.pop(); got != ref[0] {
				t.Fatalf("seed %d step %d: popped (at=%d seq=%d), want (at=%d seq=%d)", seed, step, got.at, got.seq, ref[0].at, ref[0].seq)
			}
			ref = ref[1:]
		}
	}
}
