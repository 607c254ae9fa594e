package vclock

import (
	"testing"
	"time"
)

func TestEventWaitForTimesOut(t *testing.T) {
	clk := New()
	ev := NewEvent("ev")
	clk.Go("waiter", func(r *Runner) {
		if ev.WaitFor(r, 5*time.Millisecond) {
			t.Error("WaitFor reported set on an unset event")
		}
		if now := r.Now(); now != Time(5*time.Millisecond) {
			t.Errorf("timed out at %v, want 5ms", now)
		}
	})
	clk.Wait()
}

func TestEventSetWakesBeforeTimeout(t *testing.T) {
	clk := New()
	ev := NewEvent("ev")
	clk.Go("waiter", func(r *Runner) {
		if !ev.WaitFor(r, 100*time.Millisecond) {
			t.Error("WaitFor missed the set")
		}
		if now := r.Now(); now != Time(10*time.Millisecond) {
			t.Errorf("woke at %v, want 10ms (the Set instant)", now)
		}
	})
	clk.Go("setter", func(r *Runner) {
		r.Sleep(10 * time.Millisecond)
		ev.Set()
	})
	clk.Wait()
}

func TestEventSetBeforeWaitReturnsImmediately(t *testing.T) {
	clk := New()
	ev := NewEvent("ev")
	ev.Set()
	ev.Set() // idempotent
	clk.Go("waiter", func(r *Runner) {
		if !ev.WaitFor(r, time.Hour) {
			t.Error("WaitFor on a pre-set event reported timeout")
		}
		if r.Now() != 0 {
			t.Errorf("pre-set event still parked the runner until %v", r.Now())
		}
	})
	clk.Wait()
}

func TestEventWakesAllWaiters(t *testing.T) {
	clk := New()
	ev := NewEvent("ev")
	woke := 0
	for i := 0; i < 4; i++ {
		clk.Go("waiter", func(r *Runner) {
			if ev.WaitFor(r, time.Hour) {
				woke++
			}
		})
	}
	clk.Go("setter", func(r *Runner) {
		r.Sleep(time.Millisecond)
		ev.Set()
	})
	clk.Wait()
	if woke != 4 {
		t.Errorf("%d waiters woke, want 4", woke)
	}
}

// TestStaleTimeoutDoesNotFireIntoLaterPark is the regression test for the
// park-generation check: after Set wins the race, the loser timeout must
// not wake the runner out of a LATER park on a different primitive.
func TestStaleTimeoutDoesNotFireIntoLaterPark(t *testing.T) {
	clk := New()
	ev := NewEvent("ev")
	cond := NewCond("cond")
	ready := false
	clk.Go("waiter", func(r *Runner) {
		// Parks with a 50ms backstop; Set wakes it at 10ms, leaving the
		// stale conditional timer armed for t=50ms.
		if !ev.WaitFor(r, 50*time.Millisecond) {
			t.Error("missed the set")
		}
		// Now park on a condition that is signalled only at t=100ms. The
		// stale timer popping at 50ms must not cut this park short.
		for !ready {
			cond.Wait(r)
		}
		if now := r.Now(); now != Time(100*time.Millisecond) {
			t.Errorf("cond wait ended at %v, want 100ms", now)
		}
	})
	clk.Go("driver", func(r *Runner) {
		r.Sleep(10 * time.Millisecond)
		ev.Set()
		r.Sleep(90 * time.Millisecond)
		ready = true
		cond.Signal()
	})
	clk.Wait()
}

func TestEventTimeoutThenReWait(t *testing.T) {
	// The periodic-loop pattern: repeated WaitFor timeouts, then a Set.
	clk := New()
	ev := NewEvent("ev")
	clk.Go("loop", func(r *Runner) {
		ticks := 0
		for !ev.WaitFor(r, 10*time.Millisecond) {
			ticks++
		}
		if ticks != 3 {
			t.Errorf("%d full periods elapsed, want 3", ticks)
		}
		if now := r.Now(); now != Time(35*time.Millisecond) {
			t.Errorf("loop exited at %v, want 35ms", now)
		}
	})
	clk.Go("setter", func(r *Runner) {
		r.Sleep(35 * time.Millisecond)
		ev.Set()
	})
	clk.Wait()
}
