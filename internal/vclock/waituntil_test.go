package vclock

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// The recheck property test runs seeded programs of runners over shared
// counters — sleeps, counter bumps followed by a Signal or a Broadcast,
// and condition waits on predicates over the counters — twice: once with
// every wait written as the loop `for !p { c.Wait(r) }`, once as
// c.WaitUntil. Each runner logs (virtual time, runner id) after every op;
// the two logs must be equal entry for entry, and so must every kernel
// count but Rechecks and Handoffs, which are what the recheck rule exists
// to change.

const wuTick = time.Microsecond

type wuKind int

const (
	wuSleep     wuKind = iota // Sleep(d ticks)
	wuSignal                  // counters[k]++, then conds[c].Signal()
	wuBroadcast               // counters[k]++, then conds[c].Broadcast()
	wuAtLeast                 // wait on conds[c] until counters[k] >= its value now + d
	wuEven                    // wait on conds[c] until counters[k] is even (not monotone)
	wuSum                     // wait on conds[c] until counters[k] + counters[k+1] >= their sum now + d
	wuKinds
)

type wuOp struct {
	kind    wuKind
	k, c, d int
}

const (
	wuCounters = 3
	wuConds    = 2
)

// wuWorld is the state a program's runners share.
type wuWorld struct {
	counters [wuCounters]int
	conds    [wuConds]*Cond
	running  int // scripted runners not yet returned
	log      []wuEntry
}

type wuEntry struct {
	now    Time
	runner uint64
}

func (e wuEntry) String() string { return fmt.Sprintf("t=%v r%d", e.now, e.runner) }

// wuWait is one runner's pending wait: the predicate's operands. It is the
// argument of wuReady, reused from wait to wait.
type wuWait struct {
	w       *wuWorld
	kind    wuKind
	k, want int
}

func wuReady(a any) bool {
	wt := a.(*wuWait)
	c := &wt.w.counters
	switch wt.kind {
	case wuAtLeast:
		return c[wt.k] >= wt.want
	case wuEven:
		return c[wt.k]%2 == 0
	default: // wuSum
		return c[wt.k]+c[(wt.k+1)%wuCounters] >= wt.want
	}
}

// wuProgram is a run: the scripted runners, started in order, and whether
// a ticker runs beside them — a runner that bumps every counter and
// broadcasts on every Cond each tick or two until the scripts are done, so
// that every wait ends.
type wuProgram struct {
	scripts [][]wuOp
	ticker  bool
	seed    int64
}

func wuRandomProgram(seed int64) wuProgram {
	rng := rand.New(rand.NewSource(seed))
	p := wuProgram{ticker: true, seed: seed}
	for range 16 {
		ops := make([]wuOp, 40)
		for i := range ops {
			op := wuOp{kind: wuKind(rng.Intn(int(wuKinds))), k: rng.Intn(wuCounters), c: rng.Intn(wuConds)}
			switch op.kind {
			case wuSleep:
				op.d = rng.Intn(4) // 0: a full park at the current instant
			case wuAtLeast, wuSum:
				op.d = 1 + rng.Intn(3)
			}
			ops[i] = op
		}
		p.scripts = append(p.scripts, ops)
	}
	return p
}

// run executes p on a fresh clock, with waits as WaitUntil or as loops.
func (p wuProgram) run(waitUntil bool) ([]wuEntry, Stats) {
	c := New()
	w := &wuWorld{running: len(p.scripts)}
	for i := range w.conds {
		w.conds[i] = NewCond(fmt.Sprintf("cond%d", i))
	}
	for _, script := range p.scripts {
		c.Go("scripted", func(r *Runner) {
			wt := &wuWait{w: w}
			for _, op := range script {
				switch op.kind {
				case wuSleep:
					r.Sleep(Duration(op.d) * wuTick)
				case wuSignal, wuBroadcast:
					w.counters[op.k]++
					if op.kind == wuSignal {
						w.conds[op.c].Signal()
					} else {
						w.conds[op.c].Broadcast()
					}
				default:
					wt.kind, wt.k = op.kind, op.k
					switch op.kind {
					case wuAtLeast:
						wt.want = w.counters[op.k] + op.d
					case wuSum:
						wt.want = w.counters[op.k] + w.counters[(op.k+1)%wuCounters] + op.d
					}
					if waitUntil {
						w.conds[op.c].WaitUntil(r, wuReady, wt)
					} else {
						for !wuReady(wt) {
							w.conds[op.c].Wait(r)
						}
					}
				}
				w.log = append(w.log, wuEntry{r.Now(), r.ID()})
			}
			w.running--
		})
	}
	if p.ticker {
		c.Go("ticker", func(r *Runner) {
			rng := rand.New(rand.NewSource(p.seed))
			for w.running > 0 {
				r.Sleep(Duration(1+rng.Intn(2)) * wuTick)
				for i := range w.counters {
					w.counters[i]++
				}
				for _, cond := range w.conds {
					cond.Broadcast()
				}
				w.log = append(w.log, wuEntry{r.Now(), r.ID()})
			}
		})
	}
	c.Wait()
	return w.log, c.Stats()
}

// wuCompare runs p both ways and fails on any difference the recheck rule
// must not make. It returns the two runs' counts.
func wuCompare(t *testing.T, name string, p wuProgram) (loop, until Stats) {
	t.Helper()
	loopLog, loop := p.run(false)
	untilLog, until := p.run(true)
	for i := range min(len(loopLog), len(untilLog)) {
		if loopLog[i] != untilLog[i] {
			t.Fatalf("%s: run %d is %v with WaitUntil, %v with Wait loops", name, i, untilLog[i], loopLog[i])
		}
	}
	if len(loopLog) != len(untilLog) {
		t.Fatalf("%s: %d runs with WaitUntil, %d with Wait loops", name, len(untilLog), len(loopLog))
	}
	l, u := loop, until
	l.Rechecks, l.Handoffs, u.Rechecks, u.Handoffs = 0, 0, 0, 0
	if l != u {
		t.Fatalf("%s: stats %+v with WaitUntil, %+v with Wait loops", name, u, l)
	}
	if loop.Rechecks != 0 {
		t.Fatalf("%s: %d rechecks without WaitUntil", name, loop.Rechecks)
	}
	if until.Handoffs > loop.Handoffs {
		t.Fatalf("%s: %d hand-offs with WaitUntil, more than the loops' %d", name, until.Handoffs, loop.Handoffs)
	}
	return loop, until
}

func TestWaitUntilMatchesWaitLoop(t *testing.T) {
	// A timer due at the instant of a recheck. A and B are parked when B's
	// Broadcast wakes A with its predicate still false, and B sleeps to
	// t=2, where C1's and C2's timers, armed earlier, are due too. The loop
	// runs A, which parks again and advances time as the runner giving up
	// the baton: C1, C2 and B come due in that order, B (made runnable
	// last) runs, and when it parks the run queue gives C1, then C2. A
	// kernel that advanced time on B's behalf after the recheck would keep
	// the baton with B as due and leave C2 in B's place: C2 would run
	// before C1.
	directed := wuProgram{scripts: [][]wuOp{
		{{kind: wuSleep, d: 2}},               // C1
		{{kind: wuSleep, d: 2}},               // C2
		{{kind: wuAtLeast, k: 0, c: 0, d: 1}}, // A
		{ // B
			{kind: wuSleep, d: 1},
			{kind: wuBroadcast, k: 1, c: 0}, // wakes A; counter 0 still 0
			{kind: wuSleep, d: 1},
			{kind: wuSleep, d: 1},
			{kind: wuBroadcast, k: 0, c: 0}, // A's predicate holds
		},
	}}
	if _, until := wuCompare(t, "directed", directed); until.Rechecks != 1 {
		t.Fatalf("directed: %d rechecks, want 1", until.Rechecks)
	}

	var loopHandoffs, untilHandoffs, rechecks uint64
	for seed := int64(1); seed <= 40; seed++ {
		loop, until := wuCompare(t, fmt.Sprintf("seed %d", seed), wuRandomProgram(seed))
		loopHandoffs += loop.Handoffs
		untilHandoffs += until.Handoffs
		rechecks += until.Rechecks
	}
	t.Logf("%d rechecks; hand-offs %d with Wait loops, %d with WaitUntil", rechecks, loopHandoffs, untilHandoffs)
	if rechecks == 0 {
		t.Error("no recheck in 40 programs: the test does not reach the recheck rule")
	}
}

// TestWaitUntilHoldsAtOnce checks that a predicate true on entry returns
// without parking.
func TestWaitUntilHoldsAtOnce(t *testing.T) {
	c := New()
	cond := NewCond("cond")
	c.Go("waiter", func(r *Runner) {
		cond.WaitUntil(r, func(any) bool { return true }, nil)
	})
	c.Wait()
	if st := c.Stats(); st.Parks != 0 {
		t.Errorf("%d parks for a predicate that held, want 0", st.Parks)
	}
}
