package nvme

import (
	"testing"
	"time"

	"kvaccel/internal/vclock"
)

// stepSleeper returns a command whose stepped body spends d in two
// halves, parking twice as sleeper's Exec would if it slept twice.
func stepSleeper(op string, d time.Duration) *Command {
	var half int
	c := &Command{Op: op}
	c.Step = func(r *vclock.Runner) (bool, error) {
		if half++; half <= 2 {
			r.SleepStep(d / 2)
			return false, nil
		}
		half = 0
		return true, nil
	}
	return c
}

// TestSteppedCommandRunsAsExec holds a stepped command body to the
// blocking one it replaces: on the same queue shape, eight commands per
// queue complete at the same instants after the same parks, and the
// stepped workers, being kernel tasks, hand the baton to no goroutine of
// their own.
func TestSteppedCommandRunsAsExec(t *testing.T) {
	run := func(stepped bool) ([]vclock.Time, vclock.Stats) {
		clk := vclock.New()
		d := NewDispatcher(clk, Config{QueueDepth: 4, Slots: 3, DoorbellLatency: time.Microsecond, CompletionLatency: time.Microsecond})
		var done []vclock.Time
		for qi := 0; qi < 2; qi++ {
			q := d.NewQueuePair("q", 1)
			clk.Go("submitter", func(r *vclock.Runner) {
				for i := 0; i < 8; i++ {
					svc := time.Duration(10+i*qi) * time.Microsecond
					c := &Command{Op: "X", Exec: func(r *vclock.Runner) error {
						r.Sleep(svc / 2)
						r.Sleep(svc / 2)
						return nil
					}}
					if stepped {
						c = stepSleeper("X", svc)
					}
					if err := q.Do(r, c); err != nil {
						t.Errorf("command %d: %v", i, err)
					}
					done = append(done, r.Now())
				}
			})
		}
		clk.Wait()
		return done, clk.Stats()
	}
	execDone, execStats := run(false)
	stepDone, stepStats := run(true)
	if len(execDone) != len(stepDone) {
		t.Fatalf("%d completions stepped, %d blocking", len(stepDone), len(execDone))
	}
	for i := range execDone {
		if execDone[i] != stepDone[i] {
			t.Errorf("completion %d at %v stepped, %v blocking", i, stepDone[i], execDone[i])
		}
	}
	if stepStats.Parks != execStats.Parks {
		t.Errorf("%d parks stepped, %d blocking", stepStats.Parks, execStats.Parks)
	}
	if stepStats.Handoffs >= execStats.Handoffs {
		t.Errorf("%d hand-offs stepped, not below the %d blocking", stepStats.Handoffs, execStats.Handoffs)
	}
	t.Logf("parks %d; hand-offs %d blocking, %d stepped", execStats.Parks, execStats.Handoffs, stepStats.Handoffs)
}
