package nvme

import (
	"testing"
	"time"

	"kvaccel/internal/vclock"
)

// raceEnabled is set by race_test.go when the race detector is on: its
// instrumentation allocates, so allocation counts mean nothing.
var raceEnabled bool

// TestAllocsDo: a command through the queue pair — doorbell, dispatcher
// start, worker runner, completion, await — allocates nothing beyond the
// caller's own Command and Exec, which here are made once.
func TestAllocsDo(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	clk := vclock.New()
	d := NewDispatcher(clk, DefaultConfig())
	q := d.NewQueuePair("q", 1)
	cmd := sleeper("WRITE", 10*time.Microsecond)
	var allocs float64
	clk.Go("submitter", func(r *vclock.Runner) {
		do := func() {
			if err := q.Do(r, cmd); err != nil {
				t.Error(err)
			}
		}
		for i := 0; i < 8; i++ {
			do() // spawns the two runners every later command reuses
		}
		allocs = testing.AllocsPerRun(200, do)
	})
	clk.Wait()
	if allocs != 0 {
		t.Errorf("%v allocations per Do in steady state, want 0", allocs)
	}
}

// TestWorkerExecutesTheCommandItWasSpawnedFor: with every slot busy at
// once, each worker runner — named after its command's opcode when it was
// spawned — must run that command's body and no other's: workers do not
// share a queue of commands.
func TestWorkerExecutesTheCommandItWasSpawnedFor(t *testing.T) {
	clk := vclock.New()
	d := NewDispatcher(clk, Config{QueueDepth: 16, Slots: 16})
	q := d.NewQueuePair("q", 1)
	ops := []string{"A", "B", "C", "D", "E", "F", "G", "H"}
	clk.Go("submitter", func(r *vclock.Runner) {
		for round := 0; round < 3; round++ { // later rounds run on reused runners
			cmds := make([]*Command, len(ops))
			for i, op := range ops {
				cmds[i] = &Command{Op: op, Exec: func(w *vclock.Runner) error {
					if want := "nvme.cmd." + op; w.Name() != want {
						t.Errorf("round %d: command %s ran on runner %q", round, op, w.Name())
					}
					w.Sleep(time.Duration(len(ops)-i) * time.Microsecond) // later commands finish first
					return nil
				}}
				q.Submit(r, cmds[i])
			}
			for _, c := range cmds {
				if err := q.Await(r, c); err != nil {
					t.Error(err)
				}
			}
		}
	})
	clk.Wait()
}

// BenchmarkSubmitComplete is one command's round trip through the queue
// pair: submit, dispatch onto a worker runner, a 10 µs body, completion,
// await.
func BenchmarkSubmitComplete(b *testing.B) {
	b.ReportAllocs()
	clk := vclock.New()
	d := NewDispatcher(clk, DefaultConfig())
	q := d.NewQueuePair("q", 1)
	cmd := sleeper("WRITE", 10*time.Microsecond)
	clk.Go("submitter", func(r *vclock.Runner) {
		for i := 0; i < 8; i++ {
			q.Do(r, cmd)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := q.Do(r, cmd); err != nil {
				b.Error(err)
			}
		}
	})
	clk.Wait()
}
