package vclock

import (
	"context"
	"os"
	"os/exec"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestSleepAdvancesVirtualTime(t *testing.T) {
	c := New()
	var got Time
	c.Go("sleeper", func(r *Runner) {
		r.Sleep(5 * time.Second)
		got = r.Now()
	})
	c.Wait()
	if got != Time(5*time.Second) {
		t.Fatalf("virtual time after sleep = %v, want 5s", got)
	}
}

func TestSleepIsVirtualNotReal(t *testing.T) {
	c := New()
	start := time.Now()
	c.Go("sleeper", func(r *Runner) {
		for i := 0; i < 1000; i++ {
			r.Sleep(time.Hour)
		}
	})
	c.Wait()
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("1000 virtual hours took %v of real time", elapsed)
	}
	if c.Now() != Time(1000*time.Hour) {
		t.Fatalf("clock = %v, want 1000h", c.Now())
	}
}

func TestConcurrentSleepersWakeInOrder(t *testing.T) {
	c := New()
	var order []string
	sleep := func(name string, d Duration) {
		c.Go(name, func(r *Runner) {
			r.Sleep(d)
			order = append(order, name)
		})
	}
	sleep("c", 3*time.Second)
	sleep("a", 1*time.Second)
	sleep("b", 2*time.Second)
	c.Wait()
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("wake order = %v, want [a b c]", order)
	}
}

func TestSleepUntil(t *testing.T) {
	c := New()
	c.Go("r", func(r *Runner) {
		r.SleepUntil(Time(10 * time.Second))
		if r.Now() != Time(10*time.Second) {
			t.Errorf("now = %v, want 10s", r.Now())
		}
		// Sleeping until the past degrades to a zero-length sleep.
		r.SleepUntil(Time(3 * time.Second))
		if r.Now() != Time(10*time.Second) {
			t.Errorf("now after past SleepUntil = %v, want 10s", r.Now())
		}
	})
	c.Wait()
}

func TestSameInstantWakesAll(t *testing.T) {
	c := New()
	var n atomic.Int32
	for i := 0; i < 10; i++ {
		c.Go("r", func(r *Runner) {
			r.Sleep(time.Second)
			n.Add(1)
		})
	}
	c.Wait()
	if n.Load() != 10 {
		t.Fatalf("woke %d runners, want 10", n.Load())
	}
}

func TestCondSignalWakesWaiter(t *testing.T) {
	c := New()
	cond := NewCond("test-cond")
	ready := false
	var wokeAt Time
	c.Go("waiter", func(r *Runner) {
		for !ready {
			cond.Wait(r)
		}
		wokeAt = r.Now()
	})
	c.Go("signaler", func(r *Runner) {
		r.Sleep(7 * time.Second)
		ready = true
		cond.Signal()
	})
	c.Wait()
	if wokeAt != Time(7*time.Second) {
		t.Fatalf("waiter woke at %v, want 7s", wokeAt)
	}
}

func TestCondBroadcast(t *testing.T) {
	c := New()
	cond := NewCond("bc")
	released := false
	var n atomic.Int32
	for i := 0; i < 5; i++ {
		c.Go("waiter", func(r *Runner) {
			for !released {
				cond.Wait(r)
			}
			n.Add(1)
		})
	}
	c.Go("broadcaster", func(r *Runner) {
		r.Sleep(time.Second)
		released = true
		cond.Broadcast()
	})
	c.Wait()
	if n.Load() != 5 {
		t.Fatalf("released %d waiters, want 5", n.Load())
	}
}

func TestDeadlockDetection(t *testing.T) {
	c := New()
	deadlocked := trapDeadlock(c)
	cond := NewCond("never-signaled")
	c.Go("stuck", func(r *Runner) {
		cond.Wait(r) // nobody will ever signal
	})
	go c.Wait()
	select {
	case report := <-deadlocked:
		if !strings.Contains(report, "stuck: never-signaled") {
			t.Errorf("report does not name the parked runner:\n%s", report)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("deadlock not detected")
	}
}

// TestDeadlockReportedAtOnce: once Wait has started the simulation, the
// park that leaves no runner runnable and no timer pending is reported
// right then, not after some wall-clock grace.
func TestDeadlockReportedAtOnce(t *testing.T) {
	c := New()
	deadlocked := trapDeadlock(c)
	cond := NewCond("never-signaled")
	for _, d := range []Duration{0, time.Millisecond} {
		c.Go("stuck", func(r *Runner) {
			r.Sleep(d)
			cond.Wait(r)
		})
	}
	start := time.Now()
	go c.Wait()
	select {
	case <-deadlocked:
		if d := time.Since(start); d >= 100*time.Millisecond {
			t.Errorf("deadlock reported %v after Wait, want < 100ms", d)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("deadlock not detected")
	}
}

// TestLateRunnerIsNoDeadlock: a runner that waits on a condition is not
// deadlocked, however long in wall time the caller takes to start the
// runner that signals it: nothing runs before Wait.
func TestLateRunnerIsNoDeadlock(t *testing.T) {
	c := New()
	deadlocked := trapDeadlock(c)
	cond := NewCond("signalled-late")
	ready := false
	c.Go("waiter", func(r *Runner) {
		for !ready {
			cond.Wait(r)
		}
	})
	time.Sleep(50 * time.Millisecond) // real time: the caller dawdles
	c.Go("signaler", func(r *Runner) {
		r.Sleep(time.Second)
		ready = true
		cond.Signal()
	})
	join(t, c, deadlocked, "a waiter whose signaler was still to come was reported deadlocked")
	if c.Now() != Time(time.Second) {
		t.Errorf("clock = %v, want 1s", c.Now())
	}
}

// TestRunnerReturningBeforeNextGo: the first runner must not return, and
// drain the simulation, before its caller starts the second.
func TestRunnerReturningBeforeNextGo(t *testing.T) {
	c := New()
	c.Go("quick", func(r *Runner) {})
	time.Sleep(20 * time.Millisecond) // real time: the caller dawdles
	c.Go("sleeper", func(r *Runner) { r.Sleep(time.Second) })
	c.Wait()
	if c.Now() != Time(time.Second) {
		t.Errorf("clock = %v, want 1s", c.Now())
	}
}

// TestGoAfterDrainPanics: a runner started on a drained clock could never
// run in its virtual time; Go says so to its caller.
func TestGoAfterDrainPanics(t *testing.T) {
	c := New()
	c.Go("only", func(r *Runner) { r.Sleep(time.Millisecond) })
	c.Wait()
	defer func() {
		const want = `vclock: Go("late") after the simulation drained`
		if got := recover(); got != want {
			t.Errorf("recovered %v, want %q", got, want)
		}
	}()
	c.Go("late", func(r *Runner) {})
}

func TestSemaphoreLimitsConcurrency(t *testing.T) {
	c := New()
	sem := NewSemaphore(2, "sem")
	var inside, maxInside atomic.Int32
	for i := 0; i < 6; i++ {
		c.Go("worker", func(r *Runner) {
			sem.Acquire(r, 1)
			cur := inside.Add(1)
			for {
				m := maxInside.Load()
				if cur <= m || maxInside.CompareAndSwap(m, cur) {
					break
				}
			}
			r.Sleep(time.Second)
			inside.Add(-1)
			sem.Release(1)
		})
	}
	c.Wait()
	if maxInside.Load() > 2 {
		t.Fatalf("max concurrent holders = %d, want <= 2", maxInside.Load())
	}
	// 6 workers, 2 at a time, 1s each => 3 virtual seconds.
	if c.Now() != Time(3*time.Second) {
		t.Fatalf("elapsed = %v, want 3s", c.Now())
	}
}

func TestSemaphoreTryAcquire(t *testing.T) {
	sem := NewSemaphore(1, "try")
	if !sem.TryAcquire(1) {
		t.Fatal("first TryAcquire failed")
	}
	if sem.TryAcquire(1) {
		t.Fatal("second TryAcquire succeeded on full semaphore")
	}
	if sem.InUse() != 1 {
		t.Fatalf("InUse = %d, want 1", sem.InUse())
	}
	sem.Release(1)
	if !sem.TryAcquire(1) {
		t.Fatal("TryAcquire after release failed")
	}
}

func TestQueueFIFO(t *testing.T) {
	c := New()
	q := NewQueue[int](4, "q")
	var got []int
	c.Go("producer", func(r *Runner) {
		for i := 0; i < 10; i++ {
			q.Push(r, i)
			r.Sleep(time.Millisecond)
		}
		q.Close()
	})
	c.Go("consumer", func(r *Runner) {
		for {
			v, ok := q.Pop(r)
			if !ok {
				return
			}
			got = append(got, v)
		}
	})
	c.Wait()
	if len(got) != 10 {
		t.Fatalf("consumed %d items, want 10", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d, want %d (FIFO violated)", i, v, i)
		}
	}
}

func TestQueueBackpressure(t *testing.T) {
	c := New()
	q := NewQueue[int](1, "bp")
	var pushedAt []Time
	c.Go("producer", func(r *Runner) {
		for i := 0; i < 3; i++ {
			q.Push(r, i)
			pushedAt = append(pushedAt, r.Now())
		}
		q.Close()
	})
	c.Go("slow-consumer", func(r *Runner) {
		for {
			_, ok := q.Pop(r)
			if !ok {
				return
			}
			r.Sleep(time.Second)
		}
	})
	c.Wait()
	// With capacity 1 and a 1s/item consumer, the 3rd push cannot land
	// before the consumer has drained at least one item.
	if pushedAt[2] < Time(time.Second) {
		t.Fatalf("3rd push at %v, want >= 1s (backpressure)", pushedAt[2])
	}
}

func TestResourceSerializesAndAccountsBusyTime(t *testing.T) {
	c := New()
	res := NewResource(1, "link")
	for i := 0; i < 4; i++ {
		c.Go("xfer", func(r *Runner) {
			res.Use(r, 250*time.Millisecond)
		})
	}
	c.Wait()
	if c.Now() != Time(time.Second) {
		t.Fatalf("4 serialized 250ms uses took %v, want 1s", c.Now())
	}
	if res.BusyNS() != int64(time.Second) {
		t.Fatalf("busy = %dns, want 1s", res.BusyNS())
	}
}

func TestResourceParallelCapacity(t *testing.T) {
	c := New()
	res := NewResource(4, "cpu")
	for i := 0; i < 4; i++ {
		c.Go("task", func(r *Runner) {
			res.Use(r, time.Second)
		})
	}
	c.Wait()
	if c.Now() != Time(time.Second) {
		t.Fatalf("4 parallel uses on cap-4 resource took %v, want 1s", c.Now())
	}
}

// TestResourceBackgroundYieldsToForeground checks the two halves of the
// background-admission contract on a capacity-1 resource: a queued
// foreground caller is always served before a waiting background one,
// and an already-admitted background op runs to completion (at most one
// service time of foreground interference).
func TestResourceBackgroundYieldsToForeground(t *testing.T) {
	c := New()
	res := NewResource(1, "die")
	var order []string
	mark := func(s string) {
		order = append(order, s)
	}
	c.Go("driver", func(r *Runner) {
		// Occupy the unit, then line up one background and one foreground
		// waiter while it is held.
		c.Go("fg0", func(r0 *Runner) {
			res.Use(r0, 100*time.Millisecond)
			mark("fg0")
		})
		r.Sleep(10 * time.Millisecond) // fg0 holds the unit
		c.Go("bg", func(rb *Runner) {
			res.UseBackground(rb, 400*time.Millisecond)
			mark("bg")
		})
		r.Sleep(10 * time.Millisecond) // bg is waiting
		c.Go("fg1", func(r1 *Runner) {
			res.Use(r1, 100*time.Millisecond)
			mark("fg1")
		})
		r.Sleep(30 * time.Millisecond) // fg1 queued behind fg0
		// With fg1 queued, the release at t=100ms must admit fg1, not bg;
		// bg then runs 200ms..600ms and a later foreground arrival waits
		// behind it (admitted ops are not preempted).
		r.Sleep(200 * time.Millisecond) // t=250ms: bg in flight
		c.Go("fg2", func(r2 *Runner) {
			res.Use(r2, 100*time.Millisecond)
			mark("fg2")
		})
	})
	c.Wait()
	want := []string{"fg0", "fg1", "bg", "fg2"}
	if len(order) != len(want) {
		t.Fatalf("completions = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("completion order = %v, want %v", order, want)
		}
	}
	// fg0 100ms + fg1 100ms + bg 400ms + fg2 100ms, all serialized.
	if c.Now() != Time(700*time.Millisecond) {
		t.Fatalf("elapsed = %v, want 700ms", c.Now())
	}
}

func TestNestedGoFromRunner(t *testing.T) {
	c := New()
	var childDone atomic.Bool
	c.Go("parent", func(r *Runner) {
		r.Sleep(time.Second)
		c.Go("child", func(r2 *Runner) {
			r2.Sleep(time.Second)
			childDone.Store(true)
		})
		r.Sleep(5 * time.Second)
	})
	c.Wait()
	if !childDone.Load() {
		t.Fatal("child runner did not complete")
	}
	if c.Now() != Time(6*time.Second) {
		t.Fatalf("elapsed = %v, want 6s", c.Now())
	}
}

func TestManyRunnersManyEvents(t *testing.T) {
	c := New()
	const runners = 50
	const events = 200
	var n atomic.Int64
	for i := 0; i < runners; i++ {
		d := time.Duration(i+1) * time.Millisecond
		c.Go("r", func(r *Runner) {
			for j := 0; j < events; j++ {
				r.Sleep(d)
				n.Add(1)
			}
		})
	}
	c.Wait()
	if n.Load() != runners*events {
		t.Fatalf("events = %d, want %d", n.Load(), runners*events)
	}
	want := Time(runners * events * int(time.Millisecond))
	if c.Now() != want { // slowest runner: 50ms * 200
		t.Fatalf("clock = %v, want %v", c.Now(), want)
	}
}

func TestTimeHelpers(t *testing.T) {
	tm := Time(1500 * time.Millisecond)
	if s := tm.Seconds(); s != 1.5 {
		t.Errorf("Seconds() = %v, want 1.5", s)
	}
	if tm.Add(500*time.Millisecond) != Time(2*time.Second) {
		t.Errorf("Add failed")
	}
	if tm.Sub(Time(time.Second)) != 500*time.Millisecond {
		t.Errorf("Sub failed")
	}
	if tm.String() != "1.5s" {
		t.Errorf("String() = %q", tm.String())
	}
}

func TestQueueTryPop(t *testing.T) {
	q := NewQueue[string](4, "trypop")
	if _, ok := q.TryPop(); ok {
		t.Fatal("TryPop on empty queue succeeded")
	}
	if !q.TryPush("a") || !q.TryPush("b") {
		t.Fatal("TryPush failed with room available")
	}
	v, ok := q.TryPop()
	if !ok || v != "a" {
		t.Fatalf("TryPop = %q ok=%v, want a", v, ok)
	}
	if q.Len() != 1 {
		t.Fatalf("len = %d", q.Len())
	}
	v, ok = q.TryPop()
	if !ok || v != "b" {
		t.Fatalf("TryPop = %q, want b", v)
	}
}

func TestQueueTryPushFullAndClosed(t *testing.T) {
	q := NewQueue[int](1, "full")
	if !q.TryPush(1) {
		t.Fatal("push into empty failed")
	}
	if q.TryPush(2) {
		t.Fatal("push into full succeeded")
	}
	q.Close()
	if q.TryPush(3) {
		t.Fatal("push into closed succeeded")
	}
	// Closed queues still drain.
	if v, ok := q.TryPop(); !ok || v != 1 {
		t.Fatal("drain of closed queue failed")
	}
}

// TestCallerPinsTimeUntilWait reproduces the Open-then-Run constructor
// pattern: a periodic housekeeping runner starts first, and the goroutine
// doing setup registers the real workload runner afterwards. That
// goroutine is the clock's first runner until it waits, so the
// housekeeping timer cannot free-run virtual time through the gap, and
// the workload starts at t=0.
func TestCallerPinsTimeUntilWait(t *testing.T) {
	clk := New()
	stop := NewEvent("stop")
	clk.Go("housekeeping", func(r *Runner) {
		for !stop.WaitFor(r, time.Millisecond) {
		}
	})
	time.Sleep(10 * time.Millisecond) // real time: the caller dawdles
	var startedAt Time
	clk.Go("workload", func(r *Runner) {
		startedAt = r.Now()
		stop.Set()
	})
	clk.Wait()
	if startedAt != 0 {
		t.Errorf("workload started at t=%v; clock advanced during setup", startedAt)
	}
}

// TestDeadlockPanicFailsFast checks the no-handler path: a deadlocked
// clock must kill the process within a second with the parked-runner
// table, not hang until go test's timeout. The panic is not on the test's
// goroutine, so the deadlock runs in a re-executed copy of the test binary.
func TestDeadlockPanicFailsFast(t *testing.T) {
	const childEnv = "VCLOCK_DEADLOCK_CHILD"
	if os.Getenv(childEnv) == "1" {
		c := New()
		cond := NewCond("never-signaled")
		for _, name := range []string{"stuck-a", "stuck-b"} {
			c.Go(name, func(r *Runner) {
				cond.Wait(r) // nobody will ever signal
			})
		}
		c.Wait()
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestDeadlockPanicFailsFast$")
	cmd.Env = append(os.Environ(), childEnv+"=1")
	start := time.Now()
	out, err := cmd.CombinedOutput()
	elapsed := time.Since(start)
	if err == nil {
		t.Fatalf("deadlocked child exited cleanly:\n%s", out)
	}
	if elapsed >= time.Second {
		t.Errorf("deadlocked child took %v to die, want < 1s", elapsed)
	}
	for _, want := range []string{"vclock: deadlock", "stuck-a: never-signaled", "stuck-b: never-signaled"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("child output lacks %q:\n%s", want, out)
		}
	}
}
