package vclock

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// The admission-equivalence property test. Semaphore.Release wakes only
// the waiters that could win if it woke them all; herdSemaphore below is
// the Release it replaced, which did wake them all, kept as the reference.
// 64 runners go through seeded scripts of Acquire(1), Acquire(n),
// TryAcquire, Resource.Use (once, and twice back to back) and a Release
// followed by a Signal on an unrelated condition, once over
// each implementation. The kernel runs them by its run-order rule, so both
// must admit the same runners at the same instants in the same order, on
// any number of Ps and under the race detector. Along the way admRun
// checks what must hold of either: never more units held than the
// capacity, every script finishes, the deadlock detector stays silent.

// herdSemaphore is Semaphore as it was before two-candidate admission:
// Release broadcasts, every waiter re-checks, losers re-queue in the order
// they ran.
type herdSemaphore struct {
	avail int
	cap   int
	cond  Cond
}

func newHerdSemaphore(capacity int, label string) *herdSemaphore {
	return &herdSemaphore{avail: capacity, cap: capacity, cond: Cond{label: label}}
}

func (s *herdSemaphore) Acquire(r *Runner, n int) {
	for s.avail < n {
		s.cond.Wait(r)
	}
	s.avail -= n
}

func (s *herdSemaphore) TryAcquire(n int) bool {
	if s.avail < n {
		return false
	}
	s.avail -= n
	return true
}

func (s *herdSemaphore) Release(n int) {
	if s.avail += n; s.avail > s.cap {
		panic("herdSemaphore: over-release")
	}
	s.cond.Broadcast()
}

// admSemaphore is what the scripts need of either semaphore.
type admSemaphore interface {
	Acquire(r *Runner, n int)
	TryAcquire(n int) bool
	Release(n int)
}

// herdResource is Resource over a herdSemaphore: the same Use, statement
// for statement, without the busy-time account.
type herdResource struct {
	sem *herdSemaphore
}

func newHerdResource(capacity int, label string) *herdResource {
	return &herdResource{sem: newHerdSemaphore(capacity, label)}
}

func (res *herdResource) Use(r *Runner, d Duration) {
	if d <= 0 {
		return
	}
	res.sem.Acquire(r, 1)
	r.Sleep(d)
	res.sem.Release(1)
}

type admResource interface {
	Use(r *Runner, d Duration)
}

type admKind int

const (
	admAcquire       admKind = iota // Acquire(1), hold, Release(1)
	admAcquireN                     // Acquire(n), hold, Release(n): the gate closing and reopening
	admAcquireSignal                // as admAcquire, then Signal a bystander's condition before parking
	admTry                          // TryAcquire(1): barges past the waiters or gives up
	admUse                          // Resource.Use
	admUseTwice                     // two Resource.Use back to back: the second barges in on the first's release
	admUseDrawn                     // drawn, then played as admUse (see admScripts)
	admKinds
)

type admOp struct {
	kind               admKind
	n                  int
	hold, hold2, think Duration
}

const (
	admRunners = 64
	admOps     = 24
)

// admScripts draws the runners' scripts from one seeded stream.
func admScripts(seed int64, capacity int) [][]admOp {
	rng := rand.New(rand.NewSource(seed<<8 + int64(capacity)))
	// Nanosecond-grained times: two runners reaching one instant
	// independently is rare, so nearly every same-instant race is between
	// a release and the waiters it wakes, which is the one under test.
	dur := func(lo, hi int) Duration {
		return Duration(lo+rng.Intn(hi-lo)) * time.Nanosecond
	}
	scripts := make([][]admOp, admRunners)
	for i := range scripts {
		ops := make([]admOp, admOps)
		for j := range ops {
			op := admOp{kind: admKind(rng.Intn(int(admKinds))), n: 1}
			if capacity == 1 && op.kind == admAcquireN {
				op.kind = admAcquire
			}
			if op.kind == admUseDrawn {
				// A kind of its own in the draw, so each seed's scripts
				// keep the ops and times they have always had.
				op.kind = admUse
			}
			if op.kind == admAcquireN {
				op.n = 2 + rng.Intn(capacity-1)
			}
			// Holds add up to several times what the capacity can serve
			// during the think times, so queues are deep.
			op.hold, op.hold2 = dur(500, 3000), dur(500, 3000)
			op.think = dur(0, 3000*capacity)
			ops[j] = op
		}
		scripts[i] = ops
	}
	return scripts
}

// trapDeadlock makes c report a deadlock on the returned channel instead
// of panicking; join then starts the simulation, waits for c to drain and
// fails the test with the report if it deadlocks instead.
func trapDeadlock(c *Clock) <-chan string {
	deadlocked := make(chan string, 1)
	c.OnDeadlock = func(report string) { deadlocked <- report }
	return deadlocked
}

func join(t *testing.T, c *Clock, deadlocked <-chan string, what string) {
	t.Helper()
	go c.Wait()
	select {
	case <-c.done:
	case report := <-deadlocked:
		t.Fatalf("%s:\n%s", what, report)
	}
}

type admEntry struct {
	now    Time
	runner int
	op     int
	ok     bool // TryAcquire's result; true otherwise
}

func (e admEntry) String() string {
	return fmt.Sprintf("t=%v r%d op%d ok=%v", e.now, e.runner, e.op, e.ok)
}

// admRun plays the scripts on a fresh clock over the given semaphore and
// resource and returns every admission in the order it happened.
func admRun(t *testing.T, capacity int, scripts [][]admOp, sem admSemaphore, res admResource) []admEntry {
	c := New()
	deadlocked := trapDeadlock(c)

	var log []admEntry
	held := 0
	admitted := func(r *Runner, runner, op, n int, ok bool) {
		if held += n; held > capacity {
			t.Errorf("capacity %d: %d units held after r%d op%d", capacity, held, runner, op)
		}
		log = append(log, admEntry{now: r.Now(), runner: runner, op: op, ok: ok})
	}

	// The bystander waits on a condition of its own; a releaser that
	// signals it makes it, not the newest semaphore waiter, the goroutine
	// that runs next.
	byCond := NewCond("bystander")
	byStop := false
	var scriptsDone WaitGroup
	scriptsDone.Add(len(scripts))

	c.Go("bystander", func(r *Runner) {
		for !byStop {
			byCond.Wait(r)
		}
	})
	c.Go("closer", func(r *Runner) {
		scriptsDone.Wait(r)
		byStop = true
		byCond.Signal()
	})
	for i, script := range scripts {
		c.Go(fmt.Sprintf("r%d", i), func(r *Runner) {
			defer scriptsDone.Done()
			r.Sleep(Duration(1+i) * 37 * time.Nanosecond) // no two start at one instant
			for pc, op := range script {
				switch op.kind {
				case admAcquire, admAcquireN, admAcquireSignal:
					sem.Acquire(r, op.n)
					admitted(r, i, pc, op.n, true)
					r.Sleep(op.hold)
					held -= op.n
					sem.Release(op.n)
					if op.kind == admAcquireSignal {
						byCond.Signal()
					}
				case admTry:
					ok := sem.TryAcquire(1)
					if !ok {
						admitted(r, i, pc, 0, false)
						break
					}
					admitted(r, i, pc, 1, true)
					r.Sleep(op.hold)
					held--
					sem.Release(1)
				case admUse:
					res.Use(r, op.hold)
					admitted(r, i, pc, 0, true)
				case admUseTwice:
					res.Use(r, op.hold)
					res.Use(r, op.hold2)
					admitted(r, i, pc, 0, true)
				}
				r.Sleep(op.think)
			}
		})
	}
	join(t, c, deadlocked, fmt.Sprintf("capacity %d: a waiter was never admitted", capacity))
	return log
}

// admDiff returns the first difference between two admission logs.
func admDiff(got, want []admEntry) string {
	for i := range want {
		if i == len(got) || got[i] != want[i] {
			return fmt.Sprintf("admission %d of %d is %v, the herd admits %v", i, len(got), got[min(i, len(got)-1)], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d admissions, the herd has %d", len(got), len(want))
	}
	return ""
}

func TestAdmissionMatchesHerdReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		for _, capacity := range []int{1, 2, 8} {
			scripts := admScripts(seed, capacity)
			want := admRun(t, capacity, scripts, newHerdSemaphore(capacity, "sem"), newHerdResource(capacity, "res"))
			got := admRun(t, capacity, scripts, NewSemaphore(capacity, "sem"), NewResource(capacity, "res"))
			if diff := admDiff(got, want); diff != "" {
				t.Fatalf("seed %d capacity %d: %s", seed, capacity, diff)
			}
		}
	}
}

// TestAdmissionMarkIsPerWake: how a runner was last woken on one semaphore
// must not follow it to the next. x is woken as A's longest (and only)
// waiter, joins B's queue behind two others and loses B's race as its most
// recent waiter, because the releaser takes the unit straight back. If the
// mark of its wake on A were still on it, it would re-park on B as one of
// B's oldest. Both semaphores must end where the herd leaves them, and B
// with nothing on its books.
func TestAdmissionMarkIsPerWake(t *testing.T) {
	const us = time.Microsecond
	play := func(a, b admSemaphore) []string {
		c := New()
		deadlocked := trapDeadlock(c)
		var order []string
		admit := func(r *Runner) {
			order = append(order, fmt.Sprintf("%s@%v", r.Name(), r.Now()))
		}
		waitB := func(name string, at Duration) {
			c.Go(name, func(r *Runner) {
				r.Sleep(at)
				b.Acquire(r, 1)
				admit(r)
				r.Sleep(us)
				b.Release(1)
			})
		}
		c.Go("holder", func(r *Runner) {
			a.Acquire(r, 1)
			b.Acquire(r, 1)
			r.Sleep(10 * us)
			a.Release(1) // x, the longest waiter, takes it
			r.Sleep(10 * us)
			b.Release(1) // wakes b1 and x ...
			if !b.TryAcquire(1) {
				t.Error("the releaser could not take its unit back")
			}
			r.Sleep(10 * us) // ... who both find it gone
			b.Release(1)
		})
		waitB("b1", 1*us)
		waitB("b2", 2*us)
		c.Go("x", func(r *Runner) {
			r.Sleep(3 * us)
			a.Acquire(r, 1)
			b.Acquire(r, 1)
			admit(r)
			r.Sleep(us)
			b.Release(1)
			a.Release(1)
		})
		join(t, c, deadlocked, "a waiter was never admitted")
		return order
	}
	want := play(newHerdSemaphore(1, "a"), newHerdSemaphore(1, "b"))
	a, b := NewSemaphore(1, "a"), NewSemaphore(1, "b")
	got := play(a, b)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("B admitted %v, the herd admits %v", got, want)
	}
	for _, s := range []*Semaphore{a, b} {
		if s.oldestAwake != 0 || s.waiters.n != 0 || s.wide != 0 || s.avail != 1 {
			t.Errorf("%s ends with oldestAwake=%d waiters=%d wide=%d avail=%d", s.label, s.oldestAwake, s.waiters.n, s.wide, s.avail)
		}
	}
}

// TestReleaseManyWakesOnePerUnit: a gate reopening (Release(n) after an
// Acquire of every unit) over a queue of single-unit waiters must admit
// one of them per unit at that instant, not one or two and the rest at
// the next release — which here never comes.
func TestReleaseManyWakesOnePerUnit(t *testing.T) {
	const capacity, readers = 8, 12
	c := New()
	deadlocked := trapDeadlock(c)
	gate := NewSemaphore(capacity, "gate")
	var admittedAt []Time
	var parked WaitGroup
	parked.Add(1)

	c.Go("closer", func(r *Runner) {
		gate.Acquire(r, capacity)
		r.Sleep(time.Millisecond)
		gate.Release(capacity)
		parked.Wait(r) // holds nothing, releases nothing, stays around
	})
	for i := 0; i < readers; i++ {
		c.Go("reader", func(r *Runner) {
			r.Sleep(Duration(1+i) * time.Microsecond)
			gate.Acquire(r, 1)
			admittedAt = append(admittedAt, r.Now())
			last := len(admittedAt) == readers
			r.Sleep(time.Second)
			gate.Release(1)
			if last {
				parked.Done()
			}
		})
	}
	join(t, c, deadlocked, "readers left parked beside free units")
	at := Time(time.Millisecond)
	for i, got := range admittedAt {
		want := at
		if i >= capacity {
			want = at.Add(time.Second) // the first eight hold their units that long
		}
		if got != want {
			t.Errorf("reader %d admitted at %v, want %v", i, got, want)
		}
	}
}
