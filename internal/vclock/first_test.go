package vclock

import (
	"fmt"
	"testing"
	"time"
)

// acquireFirst is Acquire in the first admission class.
func acquireFirst(s *Semaphore, r *Runner) {
	for !s.AcquireFirstStep(r) {
		r.Park()
	}
}

// admissions runs a one-unit semaphore held from t=0 to t=100µs while
// waiters arrive one per microsecond in the order of classes ("p" plain,
// "f" first class), each holding the unit for 10µs once admitted, and
// returns the waiters in the order they were admitted.
func admissions(t *testing.T, classes string) []string {
	t.Helper()
	c := New()
	s := NewSemaphore(1, "sem")
	var order []string
	c.Go("holder", func(r *Runner) {
		s.Acquire(r, 1)
		r.Sleep(100 * time.Microsecond)
		s.Release(1)
	})
	for i, class := range classes {
		name := fmt.Sprintf("%c%d", class, i)
		c.Go(name, func(r *Runner) {
			r.Sleep(time.Duration(i+1) * time.Microsecond)
			if class == 'f' {
				acquireFirst(s, r)
			} else {
				s.Acquire(r, 1)
			}
			order = append(order, name)
			r.Sleep(10 * time.Microsecond)
			s.Release(1)
		})
	}
	c.Wait()
	if s.avail != 1 {
		t.Fatalf("%d units free after the run, want 1", s.avail)
	}
	return order
}

// TestFirstClassTakesNextReleasedUnit: a first-class waiter that parked
// behind plain waiters is granted the next unit released, and the plain
// ones are admitted only after it.
func TestFirstClassTakesNextReleasedUnit(t *testing.T) {
	order := admissions(t, "pppfp")
	if len(order) != 5 || order[0] != "f3" {
		t.Fatalf("admitted %v, want f3 first", order)
	}
}

// TestFirstClassIsFIFO: first-class waiters are admitted among themselves
// in the order they parked, all ahead of the plain waiters, whatever the
// plain waiters' own order.
func TestFirstClassIsFIFO(t *testing.T) {
	order := admissions(t, "fpfpfpf")
	want := []string{"f0", "f2", "f4", "f6"}
	if len(order) != 7 {
		t.Fatalf("admitted %v, want 7 waiters", order)
	}
	for i, name := range want {
		if order[i] != name {
			t.Fatalf("admitted %v, want %v first", order, want)
		}
	}
}

// TestFirstClassGrantIsNoRace: the unit a Release grants is the waiter's
// before it runs, so a caller that tries the semaphore in between finds
// nothing free, and a waiter granted a unit parks only once.
func TestFirstClassGrantIsNoRace(t *testing.T) {
	c := New()
	s := NewSemaphore(1, "sem")
	var barged bool
	var granted Time
	c.Go("holder", func(r *Runner) {
		s.Acquire(r, 1)
		r.Sleep(10 * time.Microsecond)
		s.Release(1)
		if barged = s.TryAcquire(1); barged {
			s.Release(1)
		}
	})
	c.Go("first", func(r *Runner) {
		r.Sleep(time.Microsecond)
		acquireFirst(s, r)
		granted = r.Now()
		s.Release(1)
	})
	c.Wait()
	if barged {
		t.Error("TryAcquire right after the Release took the unit granted to the first-class waiter")
	}
	if granted != Time(10*time.Microsecond) {
		t.Errorf("first-class waiter admitted at %v, want 10µs", granted)
	}
	if st := c.Stats(); st.SemWaits != 1 || st.SemParks != 1 {
		t.Errorf("%d contended admissions, %d parks: want 1 and 1", st.SemWaits, st.SemParks)
	}
}

// TestResourceFirstClass: a first-class use of a resource is served ahead
// of plain uses, the newer ones included (a plain herd's newest waiter
// would win), and the busy time counts every use.
func TestResourceFirstClass(t *testing.T) {
	c := New()
	res := NewResource(1, "res")
	var order []string
	use := func(name string, first bool, at time.Duration) {
		c.Go(name, func(r *Runner) {
			r.Sleep(at)
			if first {
				for !res.UseClassStep(r, 10*time.Microsecond, true) {
					r.Park()
				}
			} else {
				res.Use(r, 10*time.Microsecond)
			}
			order = append(order, name)
		})
	}
	use("plain0", false, 0)
	use("first", true, time.Microsecond)
	use("plain1", false, 2*time.Microsecond)
	use("plain2", false, 3*time.Microsecond)
	c.Wait()
	if fmt.Sprint(order) != "[plain0 first plain1 plain2]" && fmt.Sprint(order) != "[plain0 first plain2 plain1]" {
		t.Errorf("uses ended in the order %v, want plain0, then first", order)
	}
	if res.BusyNS() != int64(40*time.Microsecond) {
		t.Errorf("busy %v, want 40µs", time.Duration(res.BusyNS()))
	}
}
