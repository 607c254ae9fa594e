package nvme

import (
	"errors"
	"testing"
	"time"

	"kvaccel/internal/faults"
	"kvaccel/internal/vclock"
)

// TestReusedCommandsNeverRace: once Await returns, the command is the
// submitter's again. Eight runners share one queue pair, so every
// completion's broadcast can wake another runner whose own command has
// just been posted; each then resubmits that command at once, flipping
// its Background flag. Run under -race (-count=20): a completion that
// read the command after publishing done is reported as a data race with
// the resubmission.
func TestReusedCommandsNeverRace(t *testing.T) {
	const runners, rounds = 8, 1000
	clk := vclock.New()
	d := NewDispatcher(clk, Config{QueueDepth: runners, Slots: runners})
	q := d.NewQueuePair("q", 1)
	for i := 0; i < runners; i++ {
		cmd := &Command{Op: "NOP"}
		if i%2 == 1 {
			cmd.Exec = func(*vclock.Runner) error { return nil }
		}
		clk.Go("submitter", func(r *vclock.Runner) {
			for n := 0; n < rounds; n++ {
				cmd.Background = n%2 == 0
				if err := q.Do(r, cmd); err != nil {
					t.Error(err)
					return
				}
			}
		})
	}
	clk.Wait()
	s := q.Stats(clk.Now())
	if s.Submitted != runners*rounds || s.Completed != s.Submitted || s.Outstanding != 0 {
		t.Errorf("submitted %d, completed %d, outstanding %d; want %d, %d, 0",
			s.Submitted, s.Completed, s.Outstanding, runners*rounds, runners*rounds)
	}
	if s.BgSubmitted != runners*rounds/2 || s.BgCompleted != s.BgSubmitted || s.BgOutstanding != 0 {
		t.Errorf("background submitted %d, completed %d, outstanding %d; want %d, %d, 0",
			s.BgSubmitted, s.BgCompleted, s.BgOutstanding, runners*rounds/2, runners*rounds/2)
	}
}

// TestReusedCommandsAcrossSever: a power cut in the middle of a stream of
// recycled commands completes every one of them exactly once. Commands
// before the cut succeed, the ones queued or executing at the cut and
// every later one fail with ErrDeviceGone, and no submission is lost or
// completed twice.
func TestReusedCommandsAcrossSever(t *testing.T) {
	const runners, rounds = 8, 1000
	clk := vclock.New()
	d := NewDispatcher(clk, Config{QueueDepth: runners, Slots: runners / 2})
	q := d.NewQueuePair("q", 1)
	var ok, gone [runners]int
	for i := 0; i < runners; i++ {
		cmd := &Command{Op: "W", Exec: func(w *vclock.Runner) error {
			w.Sleep(time.Microsecond)
			return nil
		}}
		clk.Go("submitter", func(r *vclock.Runner) {
			for n := 0; n < rounds; n++ {
				err := q.Do(r, cmd)
				switch {
				case err == nil && gone[i] == 0:
					ok[i]++
				case errors.Is(err, faults.ErrDeviceGone):
					gone[i]++
				default:
					t.Errorf("runner %d, command %d: err=%v after %d ErrDeviceGone", i, n, err, gone[i])
					return
				}
			}
		})
	}
	clk.Go("cutter", func(r *vclock.Runner) {
		r.Sleep(300 * time.Microsecond)
		d.Sever()
	})
	clk.Wait()

	var succeeded, failed int64
	for i := range ok {
		if ok[i]+gone[i] != rounds {
			t.Errorf("runner %d: %d successes + %d failures, want %d completions", i, ok[i], gone[i], rounds)
		}
		if ok[i] == 0 || gone[i] == 0 {
			t.Errorf("runner %d: %d successes, %d failures; the cut should land mid-stream", i, ok[i], gone[i])
		}
		succeeded += int64(ok[i])
		failed += int64(gone[i])
	}
	s := q.Stats(clk.Now())
	if s.Submitted != runners*rounds || s.Completed != s.Submitted || s.Outstanding != 0 {
		t.Errorf("submitted %d, completed %d, outstanding %d; want %d, %d, 0",
			s.Submitted, s.Completed, s.Outstanding, runners*rounds, runners*rounds)
	}
	if s.Errors != failed || s.Completed-s.Errors != succeeded {
		t.Errorf("queue counts %d errors of %d completions; the submitters saw %d and %d successes",
			s.Errors, s.Completed, failed, succeeded)
	}
}
