package vclock

// WaitGroup is a clock-aware sync.WaitGroup: Wait parks the runner so
// virtual time can advance while children run. Like everything in this
// package it is for the baton holder: Done is called by a runner.
type WaitGroup struct {
	n    int
	cond Cond
}

// Add adds delta to the counter.
func (wg *WaitGroup) Add(delta int) {
	if wg.n += delta; wg.n < 0 {
		panic("vclock: negative WaitGroup counter")
	}
	if wg.n == 0 {
		wg.cond.Broadcast()
	}
}

// Done decrements the counter by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Wait parks r until the counter reaches zero.
func (wg *WaitGroup) Wait(r *Runner) {
	for wg.n > 0 {
		wg.cond.label = "waitgroup"
		wg.cond.Wait(r)
	}
}
