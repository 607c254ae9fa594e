package vclock

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestGoReusesReturnedRunner: the second of two runners that do not
// overlap gets the first one's Runner under a fresh id and name, with the
// trace context cleared — and with the park generation still counting: the
// first life leaves a timeout timer behind (its event was set first), which
// must not fire into the second life's first condition park.
func TestGoReusesReturnedRunner(t *testing.T) {
	const us = time.Microsecond
	c := New()
	deadlocked := trapDeadlock(c)
	later := NewEvent("second-life")
	var first, second *Runner
	var firstID uint64
	var wokeAt Time

	c.Go("main", func(r *Runner) {
		ev := NewEvent("ev")
		c.Go("first", func(w *Runner) {
			first, firstID = w, w.ID()
			w.SetTraceCtx(7)
			if !ev.WaitFor(w, 10*us) { // leaves a conditional timer due at t=10µs
				t.Error("event not seen")
			}
		})
		r.Sleep(us)
		ev.Set()
		r.Sleep(us) // first has returned
		c.Go("second", func(w *Runner) {
			second = w
			if w.Name() != "second" || w.ID() <= firstID || w.TraceCtx() != 0 {
				t.Errorf("second life is name=%q id=%d ctx=%d after id %d", w.Name(), w.ID(), w.TraceCtx(), firstID)
			}
			if !later.WaitFor(w, time.Second) {
				t.Error("second life's wait timed out")
			}
			wokeAt = w.Now()
		})
		r.Sleep(18 * us) // t=20µs, past the stale timer
		later.Set()
	})
	join(t, c, deadlocked, "lost wake-up")

	if first == nil || first != second {
		t.Fatalf("second runner %p did not reuse the first %p", second, first)
	}
	if want := Time(20 * us); wokeAt != want {
		t.Errorf("second life's wait ended at %v, want %v: a timer of the first life fired into it", wokeAt, want)
	}
	if st := c.Stats(); st.Spawns != 2 || st.Reuses != 1 {
		t.Errorf("spawns=%d reuses=%d, want 2 and 1", st.Spawns, st.Reuses)
	}
}

// TestIdleRunnerIsOffTheBooks: a returned runner is not alive to the
// deadlock detector, neither in its count nor in its report.
func TestIdleRunnerIsOffTheBooks(t *testing.T) {
	c := New()
	deadlocked := trapDeadlock(c)
	never := NewCond("never-signalled")
	c.Go("stuck", func(r *Runner) {
		c.Go("returns", func(w *Runner) { w.Sleep(time.Microsecond) })
		r.Sleep(time.Millisecond)
		never.Wait(r)
	})
	go c.Wait()
	select {
	case report := <-deadlocked:
		if !strings.Contains(report, "all 1 runners parked") || !strings.Contains(report, "stuck: never-signalled") || strings.Contains(report, "returns") {
			t.Errorf("report counts or lists the idle runner:\n%s", report)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no deadlock report: the idle runner still counts as runnable")
	}
}

// TestRunnerLeavingByGoexitOrPanicUnregisters: a function that leaves
// through runtime.Goexit (t.Fatal on a runner) or a panic still
// unregisters — virtual time moves on without it — and its goroutine,
// which is gone, is not offered to the next Go.
func TestRunnerLeavingByGoexitOrPanicUnregisters(t *testing.T) {
	c := New()
	deadlocked := trapDeadlock(c)
	ran := false
	c.Go("main", func(r *Runner) {
		c.Go("goexit", func(w *Runner) {
			w.Sleep(time.Microsecond)
			runtime.Goexit()
		})
		// A panicking runner takes the process down, so this one's call
		// goroutine is the test's own, recovering around Runner.calls. Like
		// every runner's, it runs only once the baton reaches it.
		p := c.enlist("panics", &c.callers, &c.free)
		p.wake = make(chan struct{}, 1)
		p.call, p.callArg = callFunc, func(w *Runner) {
			w.Sleep(time.Microsecond)
			panic("boom")
		}
		recovered := make(chan any, 1)
		go func() {
			defer func() { recovered <- recover() }()
			<-p.wake
			p.calls()
		}()
		r.Sleep(time.Millisecond) // returns only if both are off the books
		if got := <-recovered; got != "boom" {
			t.Errorf("recovered %v, want the runner's panic", got)
		}
		for _, idle := range []*Runner{c.callers, c.free} {
			if idle != nil {
				t.Errorf("runner %q is on a free list, but its goroutine is gone", idle.name)
			}
		}
		var wg WaitGroup
		wg.Add(1)
		c.Go("after", func(w *Runner) { ran = true; wg.Done() })
		wg.Wait(r)
	})
	join(t, c, deadlocked, "a runner that left abnormally still counts")
	if !ran {
		t.Error("the runner started after the abnormal exits never ran")
	}
}

// TestIdleRunnersExitWhenClockDrains: the goroutines kept for reuse are
// gone once the last runner has returned.
func TestIdleRunnersExitWhenClockDrains(t *testing.T) {
	before := runtime.NumGoroutine()
	c := New()
	c.Go("main", func(r *Runner) {
		for round := 0; round < 3; round++ {
			var wg WaitGroup
			wg.Add(16)
			for i := 0; i < 16; i++ {
				c.Go("transient", func(w *Runner) {
					w.Sleep(time.Microsecond)
					wg.Done()
				})
			}
			wg.Wait(r)
			r.Sleep(time.Microsecond)
		}
	})
	c.Wait()
	if st := c.Stats(); st.Spawns != 17 || st.Reuses != 32 {
		t.Errorf("spawns=%d reuses=%d, want 17 and 32", st.Spawns, st.Reuses)
	}
	// Wait has returned; the idle goroutines were told to go before it did
	// and need only be scheduled.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines after Clock.Wait, %d before the clock existed", after, before)
	}
}

// TestStatsCountKernelEvents checks each counter against a run whose
// events can be counted by hand.
func TestStatsCountKernelEvents(t *testing.T) {
	c := New()
	sem := NewSemaphore(1, "sem")
	c.Go("holder", func(r *Runner) {
		sem.Acquire(r, 1) // free: no wait
		c.Go("waiter", func(w *Runner) {
			sem.Acquire(w, 1) // 1 wait, 1 park, ended by the release: 1 cond wake
			sem.Release(1)
		})
		for i := 0; i < 5; i++ {
			r.Sleep(time.Microsecond) // 5 timer parks and wakes
		}
		sem.Release(1)
	})
	c.Wait()
	// Four hand-offs: Wait to holder, holder's first Sleep to waiter, the
	// waiter's park back to holder (due), holder's return to waiter; the
	// other four Sleeps keep the baton.
	want := Stats{Parks: 6, TimerWakes: 5, CondWakes: 1, Spawns: 2, SemWaits: 1, SemParks: 1, Handoffs: 4}
	if got := c.Stats(); got != want {
		t.Errorf("stats %+v, want %+v", got, want)
	}
}
