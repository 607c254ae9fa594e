package vclock

import (
	"fmt"
	"testing"
	"time"
)

// The task-equivalence tests. A task is a runner whose turns the kernel
// runs on the goroutine passing the baton on; nothing else about it may
// differ from a runner whose code blocks on a goroutine (Go). The property
// test plays the Resource.Use rows of the admission scripts twice — once
// with every user started with Go, once with every second user a task — and
// requires the same admissions at the same instants in the same order, the
// same end instant, and every kernel count but Handoffs, Spawns and
// Reuses.

// useUser is one user of a useRun: its script, and where a task is in it.
type useUser struct {
	res   *Resource
	i     int
	ops   []admOp
	log   *[]admEntry
	pc    int
	stage int // 0: not started; 1, 2: in the op's first, second use; 3: thinking
}

// stepUseUser is the user as a task: the goroutine body in useRun, cut at
// its parks.
func stepUseUser(r *Runner, arg any) (done bool) {
	u := arg.(*useUser)
	for {
		switch u.stage {
		case 0:
			u.stage = 1
			r.SleepStep(Duration(1+u.i) * 37 * time.Nanosecond)
			return false
		case 1:
			if u.pc == len(u.ops) {
				return true
			}
			if !u.res.UseStep(r, u.ops[u.pc].hold) {
				return false
			}
			u.stage = 2
		case 2:
			op := u.ops[u.pc]
			if op.kind == admUseTwice && !u.res.UseStep(r, op.hold2) {
				return false
			}
			*u.log = append(*u.log, admEntry{now: r.Now(), runner: u.i, op: u.pc, ok: true})
			u.stage = 3
			r.SleepStep(op.think)
			return false
		default:
			u.pc++
			u.stage = 1
		}
	}
}

// useRun plays the Use rows of scripts over one resource, every second
// user a task if tasks is set, and returns the admissions, the instant
// the clock drained at and its counts.
func useRun(t *testing.T, capacity int, scripts [][]admOp, tasks bool) ([]admEntry, Time, Stats) {
	c := New()
	deadlocked := trapDeadlock(c)
	res := NewResource(capacity, "res")
	var log []admEntry
	for i, script := range scripts {
		var ops []admOp
		for _, op := range script {
			if op.kind == admUse || op.kind == admUseTwice {
				ops = append(ops, op)
			}
		}
		if tasks && i%2 == 1 {
			c.GoTask(fmt.Sprintf("r%d", i), stepUseUser, &useUser{res: res, i: i, ops: ops, log: &log})
			continue
		}
		c.Go(fmt.Sprintf("r%d", i), func(r *Runner) {
			r.Sleep(Duration(1+i) * 37 * time.Nanosecond)
			for pc, op := range ops {
				res.Use(r, op.hold)
				if op.kind == admUseTwice {
					res.Use(r, op.hold2)
				}
				log = append(log, admEntry{now: r.Now(), runner: i, op: pc, ok: true})
				r.Sleep(op.think)
			}
		})
	}
	join(t, c, deadlocked, fmt.Sprintf("capacity %d: a user was never admitted", capacity))
	return log, c.Now(), c.Stats()
}

func TestTaskMatchesRunner(t *testing.T) {
	var waits uint64
	for seed := int64(1); seed <= 20; seed++ {
		for _, capacity := range []int{1, 2, 8} {
			scripts := admScripts(seed, capacity)
			want, wantEnd, runners := useRun(t, capacity, scripts, false)
			got, gotEnd, mixed := useRun(t, capacity, scripts, true)
			if diff := admDiff(got, want); diff != "" {
				t.Fatalf("seed %d capacity %d, half the users tasks: %s", seed, capacity, diff)
			}
			if gotEnd != wantEnd {
				t.Fatalf("seed %d capacity %d: drained at %v with tasks, %v without", seed, capacity, gotEnd, wantEnd)
			}
			a, b := runners, mixed
			a.Handoffs, a.Spawns, a.Reuses, b.Handoffs, b.Spawns, b.Reuses = 0, 0, 0, 0, 0, 0
			if a != b {
				t.Fatalf("seed %d capacity %d: stats %+v with tasks, %+v without", seed, capacity, b, a)
			}
			if mixed.Handoffs >= runners.Handoffs {
				t.Fatalf("seed %d capacity %d: %d hand-offs with tasks, not fewer than the %d without", seed, capacity, mixed.Handoffs, runners.Handoffs)
			}
			waits += mixed.SemWaits
		}
	}
	if waits == 0 {
		t.Error("no contended admission: the test does not reach the admission rules")
	}
}

// TestTaskKeepsTheBaton: after a task's step parks, the task is the runner
// giving up the baton, as its goroutine would have been. T waits for the
// unit B holds until t=1 and then holds it until t=2, where C1's, C2's and
// B's timers, armed earlier, are due as well: T's park advanced time, so T
// keeps the baton and runs first, then B (made runnable last), then C1 and
// C2 from the run queue. A kernel that went on picking as the goroutine
// that stepped T (B) would run B first. From t=3 on T's own timer is the
// earliest each time it parks, so it keeps the baton: its turns at t=4
// and t=5 are taken inside the pick that took t=3's, at no hand-off.
func TestTaskKeepsTheBaton(t *testing.T) {
	const us = time.Microsecond
	type run struct {
		name string
		now  Time
	}
	play := func(task bool) (log []run, handoffs []uint64) {
		c := New()
		deadlocked := trapDeadlock(c)
		res := NewResource(1, "res")
		note := func(r *Runner) { log = append(log, run{r.Name(), r.Now()}) }
		// T: Use(res, 1µs), then note and sleep 1µs three times.
		stage := 0
		tStep := func(r *Runner, _ any) bool {
			if stage == 0 {
				if !res.UseStep(r, us) {
					return false
				}
				stage = 1
			}
			if stage > 1 {
				handoffs = append(handoffs, c.Stats().Handoffs)
			}
			note(r)
			if stage++; stage == 5 {
				return true
			}
			r.SleepStep(us)
			return false
		}
		if task {
			c.GoTask("T", tStep, nil)
		} else {
			c.Go("T", func(r *Runner) {
				for !tStep(r, nil) {
					r.Park()
				}
			})
		}
		for _, name := range []string{"C1", "C2"} {
			c.Go(name, func(r *Runner) {
				r.Sleep(2 * us)
				note(r)
			})
		}
		c.Go("B", func(r *Runner) {
			res.Use(r, us)
			r.Sleep(us)
			note(r)
			r.Sleep(5 * us)
			note(r)
		})
		join(t, c, deadlocked, "a runner never finished")
		return log, handoffs
	}
	want := []run{{"T", Time(2 * us)}, {"B", Time(2 * us)}, {"C1", Time(2 * us)}, {"C2", Time(2 * us)},
		{"T", Time(3 * us)}, {"T", Time(4 * us)}, {"T", Time(5 * us)}, {"B", Time(7 * us)}}
	for _, task := range []bool{false, true} {
		log, handoffs := play(task)
		if fmt.Sprint(log) != fmt.Sprint(want) {
			t.Errorf("task=%v: runs %v, want %v", task, log, want)
		}
		if task && (len(handoffs) != 3 || handoffs[0] != handoffs[2]) {
			t.Errorf("hand-offs counted at T's steps at t=3, 4, 5: %v, want one number", handoffs)
		}
	}
}

// acquireUser is one user of an acquireRun as a task: Acquire(n), hold,
// Release(n), think, over the Acquire rows of its admission script.
type acquireUser struct {
	sem   *Semaphore
	i     int
	ops   []admOp
	log   *[]admEntry
	pc    int
	stage int // 0: not started; 1: acquiring; 2: holding; 3: thinking
}

// stepAcquireUser is the user as a task: the goroutine body in acquireRun,
// cut at its parks.
func stepAcquireUser(r *Runner, arg any) (done bool) {
	u := arg.(*acquireUser)
	for {
		switch u.stage {
		case 0:
			u.stage = 1
			r.SleepStep(Duration(1+u.i) * 37 * time.Nanosecond)
			return false
		case 1:
			if u.pc == len(u.ops) {
				return true
			}
			op := u.ops[u.pc]
			if !u.sem.AcquireStep(r, op.n) {
				return false
			}
			*u.log = append(*u.log, admEntry{now: r.Now(), runner: u.i, op: u.pc, ok: true})
			u.stage = 2
			r.SleepStep(op.hold)
			return false
		case 2:
			op := u.ops[u.pc]
			u.sem.Release(op.n)
			u.stage = 3
			r.SleepStep(op.think)
			return false
		default:
			u.pc++
			u.stage = 1
		}
	}
}

// acquireRun plays the Acquire rows of scripts — one unit, and several, so
// Release's wake-everyone path is played too — over one semaphore, every
// second user a task calling AcquireStep if tasks is set, and returns the
// admissions, the instant the clock drained at and its counts.
func acquireRun(t *testing.T, capacity int, scripts [][]admOp, tasks bool) ([]admEntry, Time, Stats) {
	c := New()
	deadlocked := trapDeadlock(c)
	sem := NewSemaphore(capacity, "sem")
	var log []admEntry
	for i, script := range scripts {
		var ops []admOp
		for _, op := range script {
			if op.kind == admAcquire || op.kind == admAcquireN {
				ops = append(ops, op)
			}
		}
		if tasks && i%2 == 1 {
			c.GoTask(fmt.Sprintf("r%d", i), stepAcquireUser, &acquireUser{sem: sem, i: i, ops: ops, log: &log})
			continue
		}
		c.Go(fmt.Sprintf("r%d", i), func(r *Runner) {
			r.Sleep(Duration(1+i) * 37 * time.Nanosecond)
			for pc, op := range ops {
				sem.Acquire(r, op.n)
				log = append(log, admEntry{now: r.Now(), runner: i, op: pc, ok: true})
				r.Sleep(op.hold)
				sem.Release(op.n)
				r.Sleep(op.think)
			}
		})
	}
	join(t, c, deadlocked, fmt.Sprintf("capacity %d: a user was never admitted", capacity))
	return log, c.Now(), c.Stats()
}

// TestAcquireStepMatchesAcquire: tasks contending through AcquireStep are
// admitted in the order, and at the instants, of runners blocking in
// Acquire, with the same end instant and every kernel count but
// Handoffs, Spawns and Reuses.
func TestAcquireStepMatchesAcquire(t *testing.T) {
	var waits uint64
	for seed := int64(1); seed <= 20; seed++ {
		for _, capacity := range []int{1, 2, 8} {
			scripts := admScripts(seed, capacity)
			want, wantEnd, runners := acquireRun(t, capacity, scripts, false)
			got, gotEnd, mixed := acquireRun(t, capacity, scripts, true)
			if diff := admDiff(got, want); diff != "" {
				t.Fatalf("seed %d capacity %d, half the users tasks: %s", seed, capacity, diff)
			}
			if gotEnd != wantEnd {
				t.Fatalf("seed %d capacity %d: drained at %v with tasks, %v without", seed, capacity, gotEnd, wantEnd)
			}
			a, b := runners, mixed
			a.Handoffs, a.Spawns, a.Reuses, b.Handoffs, b.Spawns, b.Reuses = 0, 0, 0, 0, 0, 0
			if a != b {
				t.Fatalf("seed %d capacity %d: stats %+v with tasks, %+v without", seed, capacity, b, a)
			}
			if mixed.Handoffs >= runners.Handoffs {
				t.Fatalf("seed %d capacity %d: %d hand-offs with tasks, not fewer than the %d without", seed, capacity, mixed.Handoffs, runners.Handoffs)
			}
			waits += mixed.SemWaits
		}
	}
	if waits == 0 {
		t.Error("no contended admission: the test does not reach the admission rules")
	}
}
