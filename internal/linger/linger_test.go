package linger

import (
	"testing"
	"time"

	"kvaccel/internal/vclock"
)

const window = 100 * time.Microsecond

func TestLenFollowsRecentClaims(t *testing.T) {
	w := New("test", window, 4)
	if d := w.Len(false); d != window {
		t.Fatalf("a fresh window is %v long, want %v", d, window)
	}
	if d := w.Len(true); d != 0 {
		t.Fatalf("a full claim lingers %v", d)
	}
	// Lingered claims that go out alone shut the window after three...
	for i := 0; i < futileLimit; i++ {
		if d := w.Len(false); d != window {
			t.Fatalf("after %d futile claims the window is %v", i, d)
		}
		w.Note(1, true)
	}
	if d := w.Len(false); d != 0 {
		t.Fatalf("after %d futile claims the window is still %v", futileLimit, d)
	}
	// ...claims made without lingering leave it shut, and one that forms
	// a group on its own opens it again.
	w.Note(1, false)
	if d := w.Len(false); d != 0 {
		t.Fatalf("an unlingered singleton reopened the window (%v)", d)
	}
	w.Note(2, false)
	if d := w.Len(false); d != window {
		t.Fatalf("a group of two left the window at %v", d)
	}
	// Claims that reach the target on their own shut it too.
	for i := 0; i < 8; i++ {
		w.Note(8, false)
	}
	if d := w.Len(false); d != 0 {
		t.Fatalf("claims of 8 against a target of 4 still linger %v", d)
	}
	if d := New("off", 0, 4).Len(false); d != 0 {
		t.Fatalf("a zero-length window lingers %v", d)
	}
}

func TestWaitEndsAtTheWindowOrWhenCutShort(t *testing.T) {
	clk := vclock.New()
	w := New("test", window, 4)
	var timedOut, cut time.Duration
	clk.Go("leader", func(r *vclock.Runner) {
		start := r.Now()
		w.Wait(r, window)
		timedOut = r.Now().Sub(start)
		w.CutShort() // with no window open, the next Wait lowers it again
		start = r.Now()
		w.Wait(r, window)
		cut = r.Now().Sub(start)
	})
	clk.Go("joiner", func(r *vclock.Runner) {
		r.Sleep(window + 30*time.Microsecond)
		w.CutShort()
	})
	clk.Wait()
	if timedOut != window {
		t.Errorf("an uncut window lasted %v, want %v", timedOut, window)
	}
	if cut != 30*time.Microsecond {
		t.Errorf("a window cut short 30µs in lasted %v", cut)
	}
}
