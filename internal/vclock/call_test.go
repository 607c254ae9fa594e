package vclock

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// The call-equivalence tests. Runner.Call runs a blocking function as the
// task that asked for it, on a goroutine the task keeps; nothing else may
// differ from a runner that made the call inline. The property test plays
// seeded scripts whose bodies block — Sleep, Cond.Wait, Resource.Use, a
// nested GoWith — once on runners started with Go, whose one turn is the
// whole body, and once with every second user a task that runs each body
// inside Call (and waits on a predicate
// with Cond.WaitUntilStep), and requires the same log of instants and
// runner ids, the same end instant, and every kernel count but Handoffs,
// Spawns and Reuses: Rechecks among them.

// callKind is one blocking action of a script body.
type callKind int

const (
	callSleep callKind = iota // Sleep(d)
	callWait                  // Cond.Wait on the bell the ringer broadcasts
	callUse                   // Resource.Use(d)
	callSpawn                 // GoWith a child that sleeps d and logs, then Sleep(d)
	callKinds
)

// callOp is one op of a user's script: think (no park when zero), a wait
// until the ringer has rung twice more if gate is set (Cond.WaitUntil, or
// WaitUntilStep in a task's step), then a body of zero to three blocking
// actions. Durations are a few multiples of
// 100 ns, so that many timers come due at one instant, where the run-order
// rule has the most to decide.
type callOp struct {
	think Duration
	gate  bool
	body  []callKind
	d     Duration
}

func callScripts(seed int64, users int) [][]callOp {
	rng := rand.New(rand.NewSource(seed))
	scripts := make([][]callOp, users)
	for i := range scripts {
		ops := make([]callOp, 3+rng.Intn(6))
		for j := range ops {
			op := &ops[j]
			if rng.Intn(3) > 0 {
				op.think = Duration(1+rng.Intn(2)) * 100 * time.Nanosecond
			}
			op.d = Duration(rng.Intn(3)) * 100 * time.Nanosecond
			op.gate = rng.Intn(4) == 0
			for k := rng.Intn(4); k > 0; k-- {
				op.body = append(op.body, callKind(rng.Intn(int(callKinds))))
			}
		}
		scripts[i] = ops
	}
	return scripts
}

// callEntry is one line of a callRun's log: who, at what instant, what.
type callEntry struct {
	now  Time
	id   uint64
	what string
}

func (e callEntry) String() string { return fmt.Sprintf("t=%v r%d %s", e.now, e.id, e.what) }

// callWorld is what a callRun's users share.
type callWorld struct {
	c         *Clock
	res       *Resource
	bell      *Cond
	log       []callEntry
	remaining int // users not yet done; the ringer stops at zero
	rings     int // times the ringer has rung the bell
}

func (w *callWorld) note(r *Runner, what string, a ...any) {
	w.log = append(w.log, callEntry{r.Now(), r.ID(), fmt.Sprintf(what, a...)})
}

// callUser is one user of a callRun and, as a task, where it is.
type callUser struct {
	w      *callWorld
	i      int
	ops    []callOp
	pc     int
	stage  int // 0: before op pc's think; 1: before its gate; 2: in it; 3: before its body; 4: its body ran
	target int // the ring the gate waits for
}

// rungPast is a gate's predicate.
func rungPast(arg any) bool {
	u := arg.(*callUser)
	return u.w.rings >= u.target
}

// callChild is the runner a callSpawn action starts.
type callChild struct {
	w *callWorld
	d Duration
}

func runCallChild(r *Runner, arg any) {
	ch := arg.(*callChild)
	r.Sleep(ch.d)
	ch.w.note(r, "child")
}

// body is the blocking part of op pc: what a task runs inside Call.
func (u *callUser) body(r *Runner) {
	op := u.ops[u.pc]
	for k, kind := range op.body {
		switch kind {
		case callSleep:
			r.Sleep(op.d)
		case callWait:
			u.w.bell.Wait(r)
		case callUse:
			u.w.res.Use(r, op.d+100*time.Nanosecond)
		case callSpawn:
			u.w.c.GoWith(fmt.Sprintf("child%d.%d.%d", u.i, u.pc, k), runCallChild, &callChild{u.w, op.d})
			r.Sleep(op.d)
		}
		u.w.note(r, "u%d op%d action%d", u.i, u.pc, k)
	}
}

func callBody(r *Runner, arg any) { arg.(*callUser).body(r) }

// stepCallUser is the user as a task: the goroutine body in callRun, cut
// at its parks, with each op's body run inside Call.
func stepCallUser(r *Runner, arg any) (done bool) {
	u := arg.(*callUser)
	for {
		switch u.stage {
		case 0:
			if u.pc == len(u.ops) {
				u.w.remaining--
				return true
			}
			u.stage = 1
			if think := u.ops[u.pc].think; think > 0 {
				r.SleepStep(think)
				return false
			}
		case 1:
			u.stage = 3
			if u.ops[u.pc].gate {
				u.target = u.w.rings + 2
				u.stage = 2
			}
		case 2:
			if !u.w.bell.WaitUntilStep(r, rungPast, u) {
				return false
			}
			u.stage = 3
		case 3:
			u.stage = 4
			r.Call(callBody, u)
			return false
		default:
			u.w.note(r, "u%d op%d done", u.i, u.pc)
			u.pc++
			u.stage = 0
		}
	}
}

// callRun plays scripts over a fresh clock, every second user a task if
// tasks is set, and returns the log, the instant the clock drained at and
// its counts.
func callRun(t *testing.T, scripts [][]callOp, tasks bool) ([]callEntry, Time, Stats) {
	c := New()
	deadlocked := trapDeadlock(c)
	w := &callWorld{c: c, res: NewResource(2, "res"), bell: NewCond("bell"), remaining: len(scripts)}
	for i, script := range scripts {
		u := &callUser{w: w, i: i, ops: script}
		if tasks && i%2 == 1 {
			c.GoTask(fmt.Sprintf("u%d", i), stepCallUser, u)
			continue
		}
		c.Go(fmt.Sprintf("u%d", i), func(r *Runner) {
			for ; u.pc < len(u.ops); u.pc++ {
				if think := u.ops[u.pc].think; think > 0 {
					r.Sleep(think)
				}
				if u.ops[u.pc].gate {
					u.target = w.rings + 2
					w.bell.WaitUntil(r, rungPast, u)
				}
				u.body(r)
				w.note(r, "u%d op%d done", u.i, u.pc)
			}
			w.remaining--
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

func TestCallMatchesRunner(t *testing.T) {
	kinds := map[callKind]bool{}
	var rechecks uint64
	for seed := int64(1); seed <= 30; seed++ {
		scripts := callScripts(seed, 12)
		for _, s := range scripts {
			for _, op := range s {
				for _, k := range op.body {
					kinds[k] = true
				}
			}
		}
		want, wantEnd, runners := callRun(t, scripts, false)
		got, gotEnd, mixed := callRun(t, scripts, true)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			for i := range min(len(got), len(want)) {
				if got[i] != want[i] {
					t.Fatalf("seed %d: entry %d is %v with calls, %v without", seed, i, got[i], want[i])
				}
			}
			t.Fatalf("seed %d: %d entries with calls, %d without", seed, len(got), len(want))
		}
		if gotEnd != wantEnd {
			t.Fatalf("seed %d: drained at %v with calls, %v without", seed, gotEnd, wantEnd)
		}
		a, b := runners, mixed
		a.Handoffs, a.Spawns, a.Reuses, b.Handoffs, b.Spawns, b.Reuses = 0, 0, 0, 0, 0, 0
		if a != b {
			t.Fatalf("seed %d: stats %+v with calls, %+v without", seed, b, a)
		}
		rechecks += mixed.Rechecks
	}
	if rechecks == 0 {
		t.Error("no gate was rechecked: the test does not reach the recheck rule")
	}
	if len(kinds) != int(callKinds) {
		t.Errorf("the scripts use %d of the %d kinds of blocking action", len(kinds), callKinds)
	}
}

// TestCallsWithoutParkHandOffNothing: a step that asks for a second call
// right after its first returns, with no park between, has it run on the
// spot: nothing is handed off between the end of one and the start of the
// next.
func TestCallsWithoutParkHandOffNothing(t *testing.T) {
	c := New()
	deadlocked := trapDeadlock(c)
	var afterFirst, beforeSecond uint64
	calls := 0
	c.Go("other", func(r *Runner) { r.Sleep(5 * time.Microsecond) })
	c.GoTask("task", func(r *Runner, _ any) bool {
		switch calls++; calls {
		case 1:
			r.Call(func(r *Runner, _ any) {
				r.Sleep(time.Microsecond)
				afterFirst = c.Stats().Handoffs
			}, nil)
		case 2:
			r.Call(func(r *Runner, _ any) {
				beforeSecond = c.Stats().Handoffs
				r.Sleep(time.Microsecond)
			}, nil)
		default:
			return true
		}
		return false
	}, nil)
	join(t, c, deadlocked, "the task never finished")
	if calls != 3 {
		t.Fatalf("the step ran %d times, want 3", calls)
	}
	if afterFirst != beforeSecond {
		t.Errorf("%d hand-offs between two calls with no park between", beforeSecond-afterFirst)
	}
}

// TestCallThenFinishLeavesAsARunner: a task whose step ends it right after
// its call returns passes the baton on as a returning runner's leave
// would. B, A and T run in that order at t=0 and each sleeps until t=1µs
// (T inside its call); T's park advanced time, so it keeps the baton,
// returns, and A (made runnable last) runs before B.
func TestCallThenFinishLeavesAsARunner(t *testing.T) {
	const us = time.Microsecond
	play := func(task bool) (log []string, end Time, st Stats) {
		c := New()
		deadlocked := trapDeadlock(c)
		note := func(r *Runner) { log = append(log, fmt.Sprintf("%s@%v", r.Name(), r.Now())) }
		sleeper := func(r *Runner) {
			r.Sleep(us)
			note(r)
		}
		c.Go("A", sleeper)
		body := func(r *Runner, _ any) { r.Sleep(us) }
		if task {
			called := false
			c.GoTask("T", func(r *Runner, _ any) bool {
				if !called {
					called = true
					r.Call(body, nil)
					return false
				}
				note(r)
				return true
			}, nil)
		} else {
			c.Go("T", func(r *Runner) {
				body(r, nil)
				note(r)
			})
		}
		c.Go("B", sleeper)
		join(t, c, deadlocked, "a runner never finished")
		return log, c.Now(), c.Stats()
	}
	want := "[T@1µs A@1µs B@1µs]"
	var stats [2]Stats
	for i, task := range []bool{false, true} {
		log, end, st := play(task)
		if fmt.Sprint(log) != want || end != Time(us) {
			t.Errorf("task=%v: runs %v ending at %v, want %s ending at 1µs", task, log, end, want)
		}
		st.Handoffs, st.Spawns, st.Reuses = 0, 0, 0
		stats[i] = st
	}
	if stats[0] != stats[1] {
		t.Errorf("stats %+v with a call, %+v without", stats[1], stats[0])
	}
}

// TestReusedTaskKeepsItsCallGoroutine: a finished task's Runner serves the
// next GoTask with the goroutine its calls ran on, which runs the new
// task's calls.
func TestReusedTaskKeepsItsCallGoroutine(t *testing.T) {
	c := New()
	deadlocked := trapDeadlock(c)
	var runners []*Runner
	var wakes []chan struct{}
	oneCall := func(r *Runner, arg any) bool {
		if *arg.(*bool) {
			runners, wakes = append(runners, r), append(wakes, r.wake)
			return true
		}
		*arg.(*bool) = true
		r.Call(func(r *Runner, _ any) { r.Sleep(time.Microsecond) }, nil)
		return false
	}
	c.Go("main", func(r *Runner) {
		for i := 0; i < 3; i++ {
			c.GoTask("task", oneCall, new(bool))
			r.Sleep(10 * time.Microsecond)
		}
	})
	join(t, c, deadlocked, "a task never finished")
	if len(runners) != 3 {
		t.Fatalf("%d tasks finished, want 3", len(runners))
	}
	for i := 1; i < 3; i++ {
		if runners[i] != runners[0] || wakes[i] != wakes[0] {
			t.Errorf("task %d ran on Runner %p with wake %p, the first on %p with %p", i, runners[i], wakes[i], runners[0], wakes[0])
		}
	}
	if st := c.Stats(); st.Reuses != 2 {
		t.Errorf("%d reuses, want 2", st.Reuses)
	}
}

// TestCallGoroutinesExitWhenClockDrains: once Wait has returned, the
// goroutines tasks kept for their calls are gone with the runners'.
func TestCallGoroutinesExitWhenClockDrains(t *testing.T) {
	before := runtime.NumGoroutine()
	c := New()
	for i := 0; i < 8; i++ {
		calls := 0
		c.GoTask(fmt.Sprintf("task%d", i), func(r *Runner, _ any) bool {
			if calls++; calls > 2 {
				return true
			}
			r.Call(func(r *Runner, _ any) { r.Sleep(time.Duration(i+1) * time.Microsecond) }, nil)
			return false
		}, nil)
	}
	c.Go("runner", func(r *Runner) { r.Sleep(20 * time.Microsecond) })
	c.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines after Clock.Wait, %d before the clock existed", after, before)
	}
}

// TestCallLeavingByGoexitUnregisters: a call that leaves through
// runtime.Goexit (t.Fatal inside an engine call) unregisters its task, as
// a runner's function that does so is unregistered: virtual time moves on
// without it, the clock drains, and its Runner, whose goroutine is gone,
// is not offered to the next GoTask.
func TestCallLeavingByGoexitUnregisters(t *testing.T) {
	c := New()
	deadlocked := trapDeadlock(c)
	var dead *Runner
	ran := false
	c.GoTask("goexit", func(r *Runner, _ any) bool {
		dead = r
		r.Call(func(r *Runner, _ any) {
			r.Sleep(time.Microsecond)
			runtime.Goexit()
		}, nil)
		return false
	}, nil)
	c.Go("main", func(r *Runner) {
		r.Sleep(time.Millisecond)
		for _, idle := range []*Runner{c.callers, c.free} {
			if idle != nil {
				t.Errorf("task %q is on a free list, but its goroutine is gone", idle.name)
			}
		}
		c.GoTask("after", func(r *Runner, _ any) bool {
			if r == dead {
				t.Error("the task after the abnormal exit reused its Runner")
			}
			ran = true
			return true
		}, nil)
	})
	// A call that left holding the baton would stop the clock without a
	// deadlock report: wait in wall time too.
	go c.Wait()
	select {
	case <-c.done:
	case report := <-deadlocked:
		t.Fatalf("a task whose call left abnormally still counts:\n%s", report)
	case <-time.After(10 * time.Second):
		t.Fatal("the clock stopped: the call that left took the baton with it")
	}
	if !ran {
		t.Error("the task started after the abnormal exit never ran")
	}
}
