package vclock

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// The wake-order property test runs 64 runners, each through a seeded
// script of timed sleeps, event waits (set or timing out) and condition
// waits (ended by Signal, Broadcast or a SignalAt due later), against the
// real kernel, and replays the same scripts through woModel — a
// single-threaded reference that keeps its timers in a plain list, takes
// them in (at, seq) order, drops stale conditional ones, and passes one
// baton among the runners and their helpers by the run-order rule. Every
// return from a primitive is logged as (now, runner, op, result); the two
// logs must be equal entry for entry, same-instant entries included.
//
// Whoever ends a runner's wait is a helper runner of its own, started just
// before the wait, which sleeps and then sets, signals or broadcasts.

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
			op.s = rng.Intn(6) // a tie with d is decided by timer seq
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

// woModel is the reference kernel. Its actors are the scripted runners,
// ids 0 to woRunners-1, and the helpers they start, numbered on from
// there.
type woModel struct {
	now    Time
	seq    uint64
	timers []woTimer
	newest int   // the actor made runnable last, -1 for none
	runq   []int // actors displaced from newest, oldest first
	actors []woActor
	shared [woConds][]int // runners waiting on each shared Cond, oldest first
	log    []woEntry
}

type woTimer struct {
	at    Time
	seq   uint64
	actor int
	gen   uint64
	cond  bool // a WaitFor timeout: fires only into the park it was armed for
}

// woActor is a scripted runner (helper < 0) or the helper that ends
// runner helper's wait in its op pc.
type woActor struct {
	script []woOp
	pc     int
	gen    uint64
	parked bool // on a condition
	helper int
	// started says a runner has run, so it is back from a wait when the
	// baton reaches it, and a helper has slept out its s ticks.
	started bool
	done    bool // the helper of the runner's current wait has acted
}

func newWoModel(scripts [][]woOp) *woModel {
	m := &woModel{newest: -1}
	for _, s := range scripts {
		m.actors = append(m.actors, woActor{script: s, helper: -1})
		m.ready(len(m.actors) - 1) // New's caller starts them all
	}
	return m
}

func (m *woModel) ready(a int) {
	if m.newest >= 0 {
		m.runq = append(m.runq, m.newest)
	}
	m.newest = a
}

func (m *woModel) arm(a, ticks int, cond bool) {
	m.seq++
	t := woTimer{at: m.now.Add(Duration(max(ticks, 0)) * woTick), seq: m.seq, actor: a, cond: cond}
	if cond {
		t.gen = m.actors[a].gen + 1 // the park that follows
	}
	m.timers = append(m.timers, t)
}

func (m *woModel) parkOn(a int) {
	m.actors[a].gen++
	m.actors[a].parked = true
}

func (m *woModel) wakeParked(a int) {
	if m.actors[a].parked {
		m.actors[a].parked = false
		m.ready(a)
	}
}

// pick is Clock.pick: the baton's next holder, or -1 when nothing is left.
func (m *woModel) pick(self int) int {
	for {
		if a := m.newest; a >= 0 {
			m.newest = -1
			return a
		}
		if len(m.runq) > 0 {
			a := m.runq[0]
			m.runq = m.runq[1:]
			return a
		}
		if len(m.timers) == 0 {
			return -1
		}
		sort.Slice(m.timers, func(a, b int) bool {
			if m.timers[a].at != m.timers[b].at {
				return m.timers[a].at < m.timers[b].at
			}
			return m.timers[a].seq < m.timers[b].seq
		})
		m.now = m.timers[0].at
		selfDue := false
		for len(m.timers) > 0 && m.timers[0].at == m.now {
			t := m.timers[0]
			m.timers = m.timers[1:]
			if a := &m.actors[t.actor]; t.cond {
				if !a.parked || a.gen != t.gen {
					continue // stale: the other side of the race already ended this park
				}
				a.parked = false
			}
			if t.actor == self {
				selfDue = true
			} else {
				m.ready(t.actor)
			}
		}
		if selfDue {
			return self
		}
	}
}

// step runs actor a with the baton until it parks (true) or returns.
func (m *woModel) step(a int) bool {
	if runner := m.actors[a].helper; runner >= 0 {
		return m.stepHelper(a, runner)
	}
	r := &m.actors[a]
	if r.started {
		// Back from the wait of op pc.
		op := r.script[r.pc]
		if op.kind == woCondShared && !r.done {
			// Another runner's Broadcast: re-check, park again.
			m.shared[op.cond] = append(m.shared[op.cond], a)
			m.parkOn(a)
			return true
		}
		m.log = append(m.log, woEntry{now: m.now, runner: a, op: r.pc, set: op.kind == woWaitFor && r.done})
		r.pc++
	}
	r.started = true
	if r.pc == len(r.script) {
		return false
	}
	op := r.script[r.pc]
	r.done = false
	switch op.kind {
	case woSleep, woSleepUntil:
		m.arm(a, op.d, false)
		return true
	case woWaitFor:
		m.start(a)
		m.arm(a, op.d, true)
	case woCondShared:
		m.start(a)
		m.shared[op.cond] = append(m.shared[op.cond], a)
	default:
		m.start(a)
	}
	m.parkOn(a)
	return true
}

// start starts the helper of runner a's current op.
func (m *woModel) start(a int) {
	m.actors = append(m.actors, woActor{helper: a, pc: m.actors[a].pc})
	m.ready(len(m.actors) - 1)
}

func (m *woModel) stepHelper(h, a int) bool {
	r, pc := &m.actors[a], m.actors[h].pc
	op := r.script[pc]
	if !m.actors[h].started {
		m.actors[h].started = true
		m.arm(h, op.s, false)
		return true
	}
	if r.pc != pc {
		return false // a WaitFor that timed out: a was woken by its timeout and has moved on
	}
	r.done = true
	switch op.kind {
	case woWaitFor, woCondOwn:
		m.wakeParked(a)
	case woCondShared:
		for _, w := range m.shared[op.cond] {
			m.wakeParked(w)
		}
		m.shared[op.cond] = nil
	case woCondAt:
		if op.d == 0 {
			m.wakeParked(a)
		} else {
			r.parked = false
			m.arm(a, op.d, false)
		}
	}
	return false
}

func (m *woModel) run() {
	self := -1
	for {
		a := m.pick(self)
		if a < 0 {
			return
		}
		if self = -1; m.step(a) {
			self = a
		}
	}
}

// woReal runs the scripts on a real Clock and returns the log in the
// order the runners wrote it.
func woReal(t *testing.T, scripts [][]woOp) []woEntry {
	c := New()
	deadlocked := trapDeadlock(c)

	var log []woEntry
	var shared [woConds]*Cond
	for k := range shared {
		shared[k] = NewCond(fmt.Sprintf("shared%d", k))
	}

	for i, script := range scripts {
		c.Go(fmt.Sprintf("r%d", i), func(r *Runner) {
			own := NewCond("own")
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
					cond := own
					if op.kind == woCondShared {
						cond = shared[op.cond]
					}
					ready := false
					c.Go("waker", func(h *Runner) {
						h.Sleep(Duration(op.s) * woTick)
						ready = true
						if op.kind == woCondShared {
							cond.Broadcast() // other runners' waits re-check and park again
						} else {
							cond.Signal()
						}
					})
					for !ready {
						cond.Wait(r)
					}
				case woCondAt:
					ready := false
					c.Go("waker", func(h *Runner) {
						h.Sleep(Duration(op.s) * woTick)
						ready = true
						own.SignalAt(h.Now().Add(Duration(op.d) * woTick))
					})
					for !ready {
						own.Wait(r)
					}
				}
				log = append(log, woEntry{now: r.Now(), runner: i, op: pc, set: set})
			}
		})
	}
	join(t, c, deadlocked, "kernel lost a wake-up")
	return log
}

func TestWakeOrderMatchesReferenceModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		scripts := make([][]woOp, woRunners)
		for i := range scripts {
			scripts[i] = woScript(seed, i)
		}
		model := newWoModel(scripts)
		model.run()
		want := model.log
		if len(want) != woRunners*woOps {
			t.Fatalf("seed %d: model finished %d ops, want %d", seed, len(want), woRunners*woOps)
		}
		got := woReal(t, scripts)
		for i := range want {
			if i == len(got) || got[i] != want[i] {
				t.Fatalf("seed %d: wake %d of %d is %v, model says %v", seed, i, len(got), got[min(i, len(got)-1)], want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d wakes logged, model has %d", seed, len(got), len(want))
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
