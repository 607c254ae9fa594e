package nvme

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"kvaccel/internal/vclock"
)

// callStep returns a command Step that runs body, blocking code, in one
// vclock.Runner.Call: the worker runs it as a goroutine runner would run
// it inline, park for park, which makes it the reference a stepped body
// is held to.
func callStep(body func(w *vclock.Runner) error) func(w *vclock.Runner) (bool, error) {
	var called bool
	var err error
	call := func(w *vclock.Runner, _ any) { err = body(w) }
	return func(w *vclock.Runner) (bool, error) {
		if called = !called; called {
			w.Call(call, nil)
			return false, nil
		}
		return true, err
	}
}

// blocking returns a command for op whose body is body, run by callStep.
func blocking(op string, body func(w *vclock.Runner) error) *Command {
	return &Command{Op: op, Step: callStep(body)}
}

// sleeper returns a command whose device-side body just spends d.
func sleeper(op string, d time.Duration) *Command {
	return blocking(op, func(r *vclock.Runner) error { r.Sleep(d); return nil })
}

func TestDepthLimitBlocksSubmitter(t *testing.T) {
	clk := vclock.New()
	d := NewDispatcher(clk, Config{QueueDepth: 2, Slots: 4})
	q := d.NewQueuePair("q", 1)
	const service = time.Millisecond
	clk.Go("submitter", func(r *vclock.Runner) {
		cmds := []*Command{sleeper("A", service), sleeper("B", service), sleeper("C", service)}
		q.Submit(r, cmds[0])
		q.Submit(r, cmds[1])
		// The queue is at full depth: the third submit must block until a
		// completion frees a slot, i.e. at least one service time.
		q.Submit(r, cmds[2])
		if now := r.Now(); now < vclock.Time(service) {
			t.Errorf("third submit returned at %v; depth limit did not block", now)
		}
		for _, c := range cmds {
			q.Await(r, c)
		}
	})
	clk.Wait()
	s := q.Stats(clk.Now())
	if s.MaxOutstanding != 2 {
		t.Errorf("max outstanding = %d, want 2 (the queue depth)", s.MaxOutstanding)
	}
	if s.Submitted != 3 || s.Completed != 3 || s.Outstanding != 0 {
		t.Errorf("counters = %+v", s)
	}
}

func TestWRRFairness(t *testing.T) {
	// Slots=1 serializes execution, so the service order is exactly the
	// arbitration order. With weights 3:1 and both queues backlogged, each
	// round must grant heavy three commands for light's one.
	clk := vclock.New()
	d := NewDispatcher(clk, Config{QueueDepth: 64, Slots: 1})
	heavy := d.NewQueuePair("heavy", 3)
	light := d.NewQueuePair("light", 1)

	var order []string
	mark := func(name string) *Command {
		return blocking(name, func(r *vclock.Runner) error {
			order = append(order, name)
			r.Sleep(100 * time.Microsecond)
			return nil
		})
	}

	const perQueue = 24
	submit := func(q *QueuePair, name string) func(r *vclock.Runner) {
		return func(r *vclock.Runner) {
			cmds := make([]*Command, perQueue)
			for i := range cmds {
				cmds[i] = mark(name)
				q.Submit(r, cmds[i])
			}
			for _, c := range cmds {
				q.Await(r, c)
			}
		}
	}
	clk.Go("heavy", submit(heavy, "H"))
	clk.Go("light", submit(light, "L"))
	clk.Wait()

	// While both queues are backlogged (the first 4*k grants for k full
	// rounds), the ratio must be 3:1. Examine the first 16 grants minus a
	// startup round for submission-order slack.
	h, l := 0, 0
	for _, name := range order[4:20] {
		if name == "H" {
			h++
		} else {
			l++
		}
	}
	if h != 12 || l != 4 {
		t.Errorf("grants over 4 steady-state rounds: heavy=%d light=%d, want 12/4; order=%v", h, l, order)
	}
}

func TestCompletionsOutOfSubmissionOrder(t *testing.T) {
	// A short command submitted after a long one must complete first when
	// both are in flight — the overlap the queue layer exists to model.
	clk := vclock.New()
	d := NewDispatcher(clk, Config{QueueDepth: 8, Slots: 2})
	q := d.NewQueuePair("q", 1)
	clk.Go("submitter", func(r *vclock.Runner) {
		long := sleeper("LONG", 10*time.Millisecond)
		short := sleeper("SHORT", time.Millisecond)
		q.Submit(r, long)
		q.Submit(r, short)
		q.Await(r, short)
		tShort := r.Now()
		q.Await(r, long)
		tLong := r.Now()
		if tShort >= tLong {
			t.Errorf("short completed at %v, long at %v; no overlap", tShort, tLong)
		}
		if tShort >= vclock.Time(5*time.Millisecond) {
			t.Errorf("short command completed at %v; it waited behind the long one", tShort)
		}
	})
	clk.Wait()
}

func TestVirtualTimeConservation(t *testing.T) {
	// Total service time can exceed elapsed time (that is the point of
	// queueing), but never by more than the firmware parallelism.
	clk := vclock.New()
	const slots = 2
	d := NewDispatcher(clk, Config{QueueDepth: 32, Slots: slots})
	q := d.NewQueuePair("q", 1)
	const n, service = 20, time.Millisecond
	clk.Go("submitter", func(r *vclock.Runner) {
		cmds := make([]*Command, n)
		for i := range cmds {
			cmds[i] = sleeper("W", service)
			q.Submit(r, cmds[i])
		}
		for _, c := range cmds {
			q.Await(r, c)
		}
	})
	clk.Wait()

	busy := d.BusyNS()
	if want := int64(n * service); busy != want {
		t.Errorf("busy = %v, want %v", time.Duration(busy), time.Duration(want))
	}
	elapsed := int64(clk.Now())
	if busy > elapsed*slots {
		t.Errorf("busy %v exceeds elapsed %v x %d slots", time.Duration(busy), time.Duration(elapsed), slots)
	}
	// And the work must actually have overlapped: 20 x 1ms on 2 slots
	// cannot take less than 10ms, nor as long as the serial 20ms.
	if elapsed < int64(n*service)/slots || elapsed >= int64(n*service) {
		t.Errorf("elapsed = %v; expected between %v and %v", clk.Now(),
			time.Duration(n*service/slots), time.Duration(n*service))
	}
}

func TestPerSubmitterQueuesProgressIndependently(t *testing.T) {
	// Two queues at depth 1: each submitter is limited by its own queue,
	// not the other's backlog.
	clk := vclock.New()
	d := NewDispatcher(clk, Config{QueueDepth: 1, Slots: 4})
	qa := d.NewQueuePair("a", 1)
	qb := d.NewQueuePair("b", 1)
	var tA, tB vclock.Time
	clk.Go("a", func(r *vclock.Runner) {
		for i := 0; i < 4; i++ {
			qa.Do(r, sleeper("A", time.Millisecond))
		}
		tA = r.Now()
	})
	clk.Go("b", func(r *vclock.Runner) {
		for i := 0; i < 4; i++ {
			qb.Do(r, sleeper("B", time.Millisecond))
		}
		tB = r.Now()
	})
	clk.Wait()
	// Serialized across queues this would take 8ms; independent queues on
	// 4 slots finish both in about 4ms.
	for name, at := range map[string]vclock.Time{"a": tA, "b": tB} {
		if at >= vclock.Time(8*time.Millisecond) {
			t.Errorf("queue %s finished at %v; queues are serializing", name, at)
		}
	}
}

// TestNewDispatcherRejectsEmptyQueues: a queue depth or a firmware slot
// count below 1 panics with the field's name instead of becoming 1.
func TestNewDispatcherRejectsEmptyQueues(t *testing.T) {
	for _, c := range []struct {
		field string
		cfg   Config
	}{
		{"QueueDepth", Config{Slots: 4}},
		{"Slots", Config{QueueDepth: 4}},
	} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, c.field) {
					t.Errorf("NewDispatcher with zero %s panicked with %q, want the field's name", c.field, msg)
				}
			}()
			NewDispatcher(vclock.New(), c.cfg)
		}()
	}
}
