package vclock

// WaitGroup is a clock-aware sync.WaitGroup: Wait parks the runner so
// virtual time can advance while children run; Done is called by a runner.
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
	for !wg.WaitStep(r) {
		r.Park()
	}
}

// WaitStep is Wait as a stepped primitive (see Cond.WaitUntilStep).
func (wg *WaitGroup) WaitStep(r *Runner) (done bool) {
	wg.cond.label = "waitgroup"
	return wg.cond.WaitUntilStep(r, waitGroupDone, wg)
}

func waitGroupDone(wg any) bool { return wg.(*WaitGroup).n == 0 }
