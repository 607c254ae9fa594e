package vclock

import (
	"sync/atomic"
	"testing"
	"time"
)

// raceEnabled is set by race_test.go when the race detector is on: its
// instrumentation allocates, so allocation counts mean nothing.
var raceEnabled bool

// wantNoAllocs runs cycle repeatedly from a runner of a fresh clock,
// beside whatever partner runners setup starts, and fails if the process
// allocates at all in steady state (testing.AllocsPerRun counts every
// goroutine's allocations, the partners' included). stop, if non-nil,
// must make the partners return.
func wantNoAllocs(t *testing.T, setup func(c *Clock, r *Runner) (cycle, stop func())) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	c := New()
	var allocs float64
	c.Go("measured", func(r *Runner) {
		cycle, stop := setup(c, r)
		for i := 0; i < 8; i++ {
			cycle() // let waiter lists, the timer heap and queues reach their steady size
		}
		allocs = testing.AllocsPerRun(200, cycle)
		if stop != nil {
			stop()
		}
	})
	c.Wait()
	if allocs != 0 {
		t.Errorf("%v allocations per cycle in steady state, want 0", allocs)
	}
}

func TestAllocsSleep(t *testing.T) {
	wantNoAllocs(t, func(c *Clock, r *Runner) (func(), func()) {
		return func() { r.Sleep(time.Microsecond) }, nil
	})
}

func TestAllocsCondPingPong(t *testing.T) {
	wantNoAllocs(t, func(c *Clock, r *Runner) (func(), func()) {
		ping, pong := NewCond("ping"), NewCond("pong")
		ball, stopped := false, false // ball: the partner's turn
		c.Go("partner", func(p *Runner) {
			for {
				for !ball && !stopped {
					ping.Wait(p)
				}
				if stopped {
					return
				}
				ball = false
				pong.Signal()
			}
		})
		cycle := func() {
			ball = true
			ping.Signal()
			for ball {
				pong.Wait(r)
			}
		}
		stop := func() {
			stopped = true
			ping.Signal()
		}
		return cycle, stop
	})
}

// TestAllocsCondSignalAt is the rpc.Conn receive shape: the consumer
// parks on "empty" and the producer, who knows when the item arrives,
// schedules its wake for that instant.
func TestAllocsCondSignalAt(t *testing.T) {
	wantNoAllocs(t, func(c *Clock, r *Runner) (func(), func()) {
		filled, taken := NewCond("filled"), NewCond("taken")
		var readyAt Time // zero: nothing queued
		stopped := false
		c.Go("consumer", func(p *Runner) {
			for {
				for !stopped && (readyAt == 0 || p.Now() < readyAt) {
					if at := readyAt; at != 0 {
						// Queued while this runner was not parked: nobody
						// scheduled its wake, so it sleeps out the rest.
						p.SleepUntil(at)
						continue
					}
					filled.Wait(p)
				}
				if stopped {
					return
				}
				readyAt = 0
				taken.Signal()
			}
		})
		cycle := func() {
			readyAt = r.Now().Add(time.Microsecond)
			at := readyAt
			filled.SignalAt(at)
			for readyAt != 0 {
				taken.Wait(r)
			}
		}
		stop := func() {
			stopped = true
			filled.Signal()
		}
		return cycle, stop
	})
}

func TestAllocsCondBroadcast(t *testing.T) {
	wantNoAllocs(t, func(c *Clock, r *Runner) (func(), func()) {
		cond := NewCond("round")
		round, stopped := 0, false
		for i := 0; i < 8; i++ {
			c.Go("waiter", func(w *Runner) {
				seen := 0
				for {
					for round == seen && !stopped {
						cond.Wait(w)
					}
					seen = round
					if stopped {
						return
					}
				}
			})
		}
		cycle := func() {
			round++
			cond.Broadcast()
			r.Sleep(time.Microsecond) // returns once all eight have parked again
		}
		stop := func() {
			stopped = true
			cond.Broadcast()
		}
		return cycle, stop
	})
}

// contended measures what n partner runners allocate while they call use
// in a loop among themselves; the measured runner only lets virtual time
// pass. (It must not compete: admission is a race among the woken, so a
// particular contender may lose every one.)
func contended(t *testing.T, n int, use func(i int, p *Runner)) {
	wantNoAllocs(t, func(c *Clock, r *Runner) (func(), func()) {
		var stopped atomic.Bool
		for i := 0; i < n; i++ {
			c.Go("partner", func(p *Runner) {
				for !stopped.Load() {
					use(i, p)
				}
			})
		}
		return func() { r.Sleep(10 * time.Microsecond) }, func() { stopped.Store(true) }
	})
}

func TestAllocsSemaphoreContended(t *testing.T) {
	sem := NewSemaphore(1, "sem")
	contended(t, 4, func(_ int, p *Runner) {
		sem.Acquire(p, 1)
		p.Sleep(time.Microsecond)
		sem.Release(1)
	})
}

func TestAllocsResourceUse(t *testing.T) {
	res := NewResource(1, "res")
	contended(t, 4, func(_ int, p *Runner) { res.Use(p, time.Microsecond) })
}

func TestAllocsResourceUseBackground(t *testing.T) {
	res := NewResource(1, "res")
	var bgUses atomic.Int64
	contended(t, 2, func(i int, p *Runner) {
		if i == 0 {
			// The foreground caller leaves gaps: background work is
			// admitted only while no foreground caller is queued.
			res.Use(p, 2*time.Microsecond)
			p.Sleep(time.Microsecond)
			return
		}
		res.UseBackground(p, 2*time.Microsecond)
		bgUses.Add(1)
	})
	if !raceEnabled && bgUses.Load() < 100 {
		t.Errorf("background caller was admitted %d times; the gate did not exercise its wait path", bgUses.Load())
	}
}

// TestAllocsGo is the ftl fan-out and nvme.Dispatcher shape: a transient
// runner is started, sleeps once and returns, and its parent joins it. In
// steady state the runner comes off the free list, so GoWith allocates
// nothing and Go only what its caller's closure costs.
func TestAllocsGo(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	c := New()
	var withArg, withClosure float64
	c.Go("measured", func(r *Runner) {
		var wg WaitGroup
		d := time.Microsecond
		spawnWith := func() {
			wg.Add(1)
			c.GoWith("transient", sleepAndDone, &wg)
			wg.Wait(r)
		}
		spawn := func() {
			wg.Add(1)
			c.Go("transient", func(w *Runner) {
				w.Sleep(d)
				wg.Done()
			})
			wg.Wait(r)
		}
		spawn() // the one spawn: every later runner is this one again
		withArg = testing.AllocsPerRun(200, spawnWith)
		withClosure = testing.AllocsPerRun(200, spawn)
	})
	c.Wait()
	if withArg != 0 {
		t.Errorf("GoWith: %v allocations per runner in steady state, want 0", withArg)
	}
	if withClosure > 1 {
		t.Errorf("Go: %v allocations per runner in steady state, want at most the caller's closure", withClosure)
	}
	if st := c.Stats(); st.Spawns != 2 {
		t.Errorf("%d runners spawned, want 2 (measured, and one transient reused %d times)", st.Spawns, st.Reuses)
	}
}

func sleepAndDone(r *Runner, wg any) {
	r.Sleep(time.Microsecond)
	wg.(*WaitGroup).Done()
}

func TestAllocsEventWaitForTimeout(t *testing.T) {
	wantNoAllocs(t, func(c *Clock, r *Runner) (func(), func()) {
		ev := NewEvent("never")
		return func() {
			if ev.WaitFor(r, time.Microsecond) {
				t.Error("unset event reported set")
			}
		}, nil
	})
}

func TestAllocsQueuePushPop(t *testing.T) {
	wantNoAllocs(t, func(c *Clock, r *Runner) (func(), func()) {
		q := NewQueue[int](4, "q")
		c.Go("consumer", func(p *Runner) {
			for {
				if _, ok := q.Pop(p); !ok {
					return
				}
			}
		})
		return func() { q.Push(r, 1) }, q.Close
	})
}

// TestVacatedSlotsAreCleared is the regression test for exited runners
// staying reachable from backing arrays: the timer heap, the waiter and
// item rings and Event's waiter list must zero every slot they give up.
func TestVacatedSlotsAreCleared(t *testing.T) {
	r := &Runner{}

	var h timerHeap
	for i := 0; i < 9; i++ {
		h.push(timer{at: Time(9 - i), seq: uint64(i), r: r})
	}
	for len(h) > 0 {
		h.pop()
	}
	for i, tm := range h[:cap(h)] {
		if tm.r != nil {
			t.Errorf("timer heap slot %d still holds a runner after pop", i)
		}
	}

	var f Ring[*Runner]
	for round := 0; round < 3; round++ { // wraps around, then grows
		for i := 0; i < 3+2*round; i++ {
			f.Push(r)
		}
		for f.n > 0 {
			f.Pop()
		}
	}
	for i, p := range f.buf {
		if p != nil {
			t.Errorf("ring slot %d still holds a runner after Pop", i)
		}
	}

	c := New()
	ev := NewEvent("never")
	for i := 0; i < 3; i++ {
		c.Go("waiter", func(w *Runner) { ev.WaitFor(w, time.Microsecond) })
	}
	c.Wait()
	for i, p := range ev.waiters[:cap(ev.waiters)] {
		if p != nil {
			t.Errorf("event waiter slot %d still holds a runner after its timeout", i)
		}
	}
}

// TestFifoOrderAcrossGrowth checks FIFO order while the ring wraps and
// grows with its head anywhere.
func TestFifoOrderAcrossGrowth(t *testing.T) {
	var f Ring[int]
	next, want := 0, 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 1+round%7; i++ {
			f.Push(next)
			next++
		}
		for i := 0; i < 1+round%5 && f.n > 0; i++ {
			if got := f.Pop(); got != want {
				t.Fatalf("round %d: popped %d, want %d", round, got, want)
			}
			want++
		}
	}
	for f.n > 0 {
		if got := f.Pop(); got != want {
			t.Fatalf("drain: popped %d, want %d", got, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("popped %d items, pushed %d", want, next)
	}
}
