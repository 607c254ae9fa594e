package nvme

import (
	"errors"
	"testing"
	"time"

	"kvaccel/internal/faults"
	"kvaccel/internal/vclock"
)

func TestInjectedMediaErrorCompletesWithStatus(t *testing.T) {
	clk := vclock.New()
	d := NewDispatcher(clk, DefaultConfig())
	plan := faults.NewPlan(1)
	plan.AddRule(faults.Rule{Op: "WRITE", Class: faults.MediaError, Every: 2})
	d.SetFaultPlan(plan)
	q := d.NewQueuePair("t", 1)

	var errs [4]error
	ran := 0
	clk.Go("submitter", func(r *vclock.Runner) {
		for i := range errs {
			errs[i] = q.Do(r, blocking("WRITE", func(w *vclock.Runner) error {
				ran++
				w.Sleep(10 * time.Microsecond)
				return nil
			}))
		}
	})
	clk.Wait()

	for i, err := range errs {
		wantErr := (i+1)%2 == 0 // Every: 2 fires on the 2nd and 4th command
		if (err != nil) != wantErr {
			t.Fatalf("cmd %d: err=%v, want error=%v", i, err, wantErr)
		}
		if wantErr && !errors.Is(err, faults.ErrMedia) {
			t.Fatalf("cmd %d: err=%v, want ErrMedia", i, err)
		}
	}
	if ran != 2 {
		t.Fatalf("body ran %d times; media-error commands must not execute", ran)
	}
	st := q.Stats(clk.Now())
	if st.Errors != 2 || st.Submitted != 4 || st.Completed != 4 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestInjectedTimeoutDelaysThenFails(t *testing.T) {
	clk := vclock.New()
	d := NewDispatcher(clk, DefaultConfig())
	plan := faults.NewPlan(1)
	plan.AddRule(faults.Rule{Op: "READ", Class: faults.Timeout, Every: 1, Delay: 5 * time.Millisecond})
	d.SetFaultPlan(plan)
	q := d.NewQueuePair("t", 1)

	var err error
	var elapsed time.Duration
	clk.Go("submitter", func(r *vclock.Runner) {
		start := r.Now()
		err = q.Do(r, &Command{Op: "READ"})
		elapsed = r.Now().Sub(start)
	})
	clk.Wait()

	if !errors.Is(err, faults.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if elapsed < 5*time.Millisecond {
		t.Fatalf("timeout returned after %v, want >= 5ms", elapsed)
	}
	if d.BusyNS() != 0 {
		t.Fatalf("injected delay counted as service time: busy=%d", d.BusyNS())
	}
}

func TestSeverDropsQueuedAndInFlightCommands(t *testing.T) {
	clk := vclock.New()
	cfg := DefaultConfig()
	cfg.Slots = 1 // force the second command to queue behind the first
	d := NewDispatcher(clk, cfg)
	q := d.NewQueuePair("t", 1)

	var inflightErr, queuedErr, lateErr error
	inflight := blocking("SLOW", func(w *vclock.Runner) error {
		w.Sleep(time.Millisecond)
		return nil
	})
	queued := blocking("NEXT", func(w *vclock.Runner) error { return nil })

	clk.Go("submitter", func(r *vclock.Runner) {
		q.Submit(r, inflight)
		q.Submit(r, queued)
		inflightErr = q.Await(r, inflight)
		queuedErr = q.Await(r, queued)
		// A command submitted after the cut fails fast, no deadlock.
		lateErr = q.Do(r, &Command{Op: "LATE"})
	})
	clk.Go("cutter", func(r *vclock.Runner) {
		r.Sleep(100 * time.Microsecond) // mid-flight of SLOW
		d.Sever()
	})
	clk.Wait()

	for name, err := range map[string]error{"inflight": inflightErr, "queued": queuedErr, "late": lateErr} {
		if !errors.Is(err, faults.ErrDeviceGone) {
			t.Fatalf("%s err = %v, want ErrDeviceGone", name, err)
		}
	}
	if !d.Severed() {
		t.Fatal("device should report severed")
	}
	d.Attach(vclock.New())
	if d.Severed() {
		t.Fatal("Attach should re-power the device")
	}
}

func TestLatencySpikeSucceedsSlowly(t *testing.T) {
	clk := vclock.New()
	d := NewDispatcher(clk, DefaultConfig())
	plan := faults.NewPlan(1)
	plan.AddRule(faults.Rule{Op: "WRITE", Class: faults.LatencySpike, Every: 1, Delay: 2 * time.Millisecond})
	d.SetFaultPlan(plan)
	q := d.NewQueuePair("t", 1)

	var err error
	var elapsed time.Duration
	clk.Go("submitter", func(r *vclock.Runner) {
		start := r.Now()
		err = q.Do(r, blocking("WRITE", func(w *vclock.Runner) error {
			w.Sleep(10 * time.Microsecond)
			return nil
		}))
		elapsed = r.Now().Sub(start)
	})
	clk.Wait()

	if err != nil {
		t.Fatalf("latency spike should not fail the command: %v", err)
	}
	if elapsed < 2*time.Millisecond {
		t.Fatalf("spike not applied: elapsed %v", elapsed)
	}
	if d.BusyNS() != int64(10*time.Microsecond) {
		t.Fatalf("busy = %d, want only the body's 10µs", d.BusyNS())
	}
}
