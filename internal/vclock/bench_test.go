package vclock

import (
	"fmt"
	"testing"
	"time"
)

// The kernel-seam benchmarks. One op is one kernel event as the layers
// above see it (a sleep, a resource use, a signalled wait, a transient
// runner); events/s is that rate in host time.

// benchRun runs body, which calls b.ResetTimer after its set-up, on a
// runner of a fresh clock and reports events/s for b.N events.
func benchRun(b *testing.B, body func(c *Clock, r *Runner)) {
	b.ReportAllocs()
	c := New()
	c.Go("bench", func(r *Runner) { body(c, r) })
	c.Wait()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

func BenchmarkSleep(b *testing.B) {
	benchRun(b, func(c *Clock, r *Runner) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Sleep(time.Microsecond)
		}
	})
}

// BenchmarkResourceUse is cpu.Pool.Run and every NAND die or channel use:
// b.N uses of a one-unit resource, split over 1, 8 or 32 contending
// runners. parks/op is what the kernel spends on one use: the sleep, and
// the parks of whoever waits for the unit.
func BenchmarkResourceUse(b *testing.B) {
	for _, contenders := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("contenders=%d", contenders), func(b *testing.B) {
			benchRun(b, func(c *Clock, r *Runner) {
				defer func(before Stats) {
					b.ReportMetric(float64(c.Stats().Parks-before.Parks)/float64(b.N), "parks/op")
				}(c.Stats())
				res := NewResource(1, "res")
				var wg WaitGroup
				wg.Add(contenders)
				b.ResetTimer()
				for w := 0; w < contenders; w++ {
					uses := b.N / contenders
					if w == 0 {
						uses += b.N % contenders
					}
					c.Go("user", func(u *Runner) {
						defer wg.Done()
						for i := 0; i < uses; i++ {
							res.Use(u, time.Microsecond)
						}
					})
				}
				wg.Wait(r)
			})
		})
	}
}

// BenchmarkCondPingPong is a hand-off between two runners: one op is one
// Signal and the Wait it ends.
func BenchmarkCondPingPong(b *testing.B) {
	benchRun(b, func(c *Clock, r *Runner) {
		conds := [2]*Cond{NewCond("ping"), NewCond("pong")}
		turn := 0
		var wg WaitGroup
		wg.Add(2)
		b.ResetTimer()
		for side := 0; side < 2; side++ {
			c.Go("player", func(p *Runner) {
				defer wg.Done()
				for i := side; i < b.N; i += 2 {
					for turn != side {
						conds[side].Wait(p)
					}
					turn = 1 - side
					conds[1-side].Signal()
				}
			})
		}
		wg.Wait(r)
	})
}

// BenchmarkGoSleepExit is the nvme.Dispatcher shape: a
// transient runner is spawned, sleeps once and exits, and its parent
// joins it.
func BenchmarkGoSleepExit(b *testing.B) {
	benchRun(b, func(c *Clock, r *Runner) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var wg WaitGroup
			wg.Add(1)
			c.Go("transient", func(t *Runner) {
				defer wg.Done()
				t.Sleep(time.Microsecond)
			})
			wg.Wait(r)
		}
	})
}
