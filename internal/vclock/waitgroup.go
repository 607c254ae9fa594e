package vclock

import "sync"

// WaitGroup is a clock-aware sync.WaitGroup: Wait parks the runner so
// virtual time can advance while children run. Done may be called from any
// goroutine, runner or not.
type WaitGroup struct {
	mu   sync.Mutex
	n    int
	cond Cond // L and label are set by the first Wait, under mu
}

// Add adds delta to the counter.
func (wg *WaitGroup) Add(delta int) {
	wg.mu.Lock()
	wg.n += delta
	if wg.n < 0 {
		wg.mu.Unlock()
		panic("vclock: negative WaitGroup counter")
	}
	zero := wg.n == 0
	wg.mu.Unlock()
	if zero {
		wg.cond.Broadcast()
	}
}

// Done decrements the counter by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Wait parks r until the counter reaches zero.
func (wg *WaitGroup) Wait(r *Runner) {
	wg.mu.Lock()
	if wg.cond.L == nil {
		wg.cond.L, wg.cond.label = &wg.mu, "waitgroup"
	}
	for wg.n > 0 {
		wg.cond.Wait(r)
	}
	wg.mu.Unlock()
}
