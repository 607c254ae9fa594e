package vclock

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// The lending-equivalence tests. Runner.Lend hands a runner's turns to a
// step until the step is done, and then gives the baton back to the call
// that lent them; nothing else may differ from that call running the
// step's ops as blocking code. The property test plays the call tests'
// seeded scripts — Sleep, Cond.Wait, Resource.Use, a GoWith child, gates
// on Cond.WaitUntil — on runners started with Go, once with every runner
// blocking and once with every second one lending its turns to a step
// that runs the same script through the stepped primitives, and requires
// the same log of instants and runner ids, the same end instant, and
// every kernel count but Handoffs.

// lendUser is a callUser whose script a lent step runs (stepLendUser).
type lendUser struct {
	callUser
	k int // the body action op pc is at
}

// stepLendUser is the user's script as a step: the goroutine body in
// lendRun, cut at its parks. Its stages are callUser's 0 to 3, then 4
// once body action k has parked and 5 while it is a Resource use.
func stepLendUser(r *Runner, arg any) (done bool) {
	u := arg.(*lendUser)
	w := u.w
	for u.pc < len(u.ops) {
		op := u.ops[u.pc]
		switch u.stage {
		case 0:
			u.stage = 1
			if op.think > 0 {
				r.SleepStep(op.think)
				return false
			}
		case 1:
			u.stage = 3
			if op.gate {
				u.target = w.rings + 2
				u.stage = 2
			}
		case 2:
			if !w.bell.WaitUntilStep(r, rungPast, &u.callUser) {
				return false
			}
			u.stage = 3
		case 3:
			if u.k == len(op.body) {
				w.note(r, "u%d op%d done", u.i, u.pc)
				u.pc, u.k, u.stage = u.pc+1, 0, 0
				continue
			}
			u.stage = 4
			switch op.body[u.k] {
			case callSleep:
				r.SleepStep(op.d)
				return false
			case callWait:
				w.bell.WaitStep(r)
				return false
			case callUse:
				u.stage = 5
			case callSpawn:
				w.c.GoWith(fmt.Sprintf("child%d.%d.%d", u.i, u.pc, u.k), runCallChild, &callChild{w, op.d})
				r.SleepStep(op.d)
				return false
			}
		case 5:
			if !w.res.UseStep(r, op.d+100*time.Nanosecond) {
				return false
			}
			u.stage = 4
		default:
			w.note(r, "u%d op%d action%d", u.i, u.pc, u.k)
			u.k++
			u.stage = 3
		}
	}
	return true
}

// lendRun plays scripts over a fresh clock, every second user lending its
// turns to stepLendUser if lend is set, and returns the log, the instant
// the clock drained at and its counts. Every user sleeps and logs once
// more after its script, so a lender's turn after the hand-back is logged.
func lendRun(t *testing.T, scripts [][]callOp, lend bool) ([]callEntry, Time, Stats) {
	c := New()
	deadlocked := trapDeadlock(c)
	w := &callWorld{c: c, res: NewResource(2, "res"), bell: NewCond("bell"), remaining: len(scripts)}
	for i, script := range scripts {
		u := &lendUser{callUser: callUser{w: w, i: i, ops: script}}
		c.Go(fmt.Sprintf("u%d", i), func(r *Runner) {
			if lend && i%2 == 1 {
				r.Lend(stepLendUser, u)
			} else {
				for ; u.pc < len(u.ops); u.pc++ {
					if think := u.ops[u.pc].think; think > 0 {
						r.Sleep(think)
					}
					if u.ops[u.pc].gate {
						u.target = w.rings + 2
						w.bell.WaitUntil(r, rungPast, &u.callUser)
					}
					u.body(r)
					w.note(r, "u%d op%d done", u.i, u.pc)
				}
			}
			w.remaining--
			r.Sleep(100 * time.Nanosecond)
			w.note(r, "u%d back", i)
		})
	}
	c.Go("ringer", func(r *Runner) {
		for w.remaining > 0 {
			r.Sleep(300 * time.Nanosecond)
			w.rings++
			w.bell.Broadcast()
		}
	})
	join(t, c, deadlocked, "a user never finished")
	return w.log, c.Now(), c.Stats()
}

func TestLendMatchesRunner(t *testing.T) {
	var rechecks uint64
	for seed := int64(1); seed <= 30; seed++ {
		scripts := callScripts(seed, 12)
		want, wantEnd, runners := lendRun(t, scripts, false)
		got, gotEnd, lent := lendRun(t, scripts, true)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			for i := range min(len(got), len(want)) {
				if got[i] != want[i] {
					t.Fatalf("seed %d: entry %d is %v lending, %v without", seed, i, got[i], want[i])
				}
			}
			t.Fatalf("seed %d: %d entries lending, %d without", seed, len(got), len(want))
		}
		if gotEnd != wantEnd {
			t.Fatalf("seed %d: drained at %v lending, %v without", seed, gotEnd, wantEnd)
		}
		if lent.Handoffs >= runners.Handoffs {
			t.Errorf("seed %d: %d hand-offs lending, %d without: lending saved no switch", seed, lent.Handoffs, runners.Handoffs)
		}
		a, b := runners, lent
		a.Handoffs, b.Handoffs = 0, 0
		if a != b {
			t.Fatalf("seed %d: stats %+v lending, %+v without", seed, b, a)
		}
		rechecks += lent.Rechecks
	}
	if rechecks == 0 {
		t.Error("no gate was rechecked: the test does not reach the recheck rule")
	}
}

// TestLendDoneAtOnceParksNothing: a step that is done on its first call,
// which Lend makes inline, parks nothing and hands nothing off.
func TestLendDoneAtOnceParksNothing(t *testing.T) {
	c := New()
	deadlocked := trapDeadlock(c)
	var before, after Stats
	steps := 0
	c.Go("lender", func(r *Runner) {
		before = c.Stats()
		r.Lend(func(*Runner, any) bool { steps++; return true }, nil)
		after = c.Stats()
	})
	join(t, c, deadlocked, "the lender never finished")
	if steps != 1 || after != before {
		t.Errorf("%d steps, stats %+v after Lend, %+v before", steps, after, before)
	}
}

// TestLentRunnerNamedInDeadlockReport: a runner parked in a lent step is
// listed under its park's label, as a blocking runner is.
func TestLentRunnerNamedInDeadlockReport(t *testing.T) {
	c := New()
	deadlocked := trapDeadlock(c)
	never := NewCond("never-rung")
	c.Go("lender", func(r *Runner) {
		r.Lend(func(r *Runner, _ any) bool {
			never.WaitStep(r)
			return false
		}, nil)
	})
	go c.Wait()
	select {
	case report := <-deadlocked:
		if !strings.Contains(report, "lender: never-rung") {
			t.Errorf("the report does not name the lent runner's park:\n%s", report)
		}
	case <-c.done:
		t.Fatal("the clock drained with a runner parked on a Cond nobody signals")
	case <-time.After(10 * time.Second):
		t.Fatal("no deadlock report")
	}
}
