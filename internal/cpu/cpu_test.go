package cpu

import (
	"testing"
	"time"

	"kvaccel/internal/vclock"
)

func TestPoolSerializesBeyondCapacity(t *testing.T) {
	c := vclock.New()
	p := NewPool(2, "cpu")
	for i := 0; i < 4; i++ {
		c.Go("task", func(r *vclock.Runner) {
			p.Run(r, time.Second)
		})
	}
	c.Wait()
	// 4 × 1s of work on 2 cores = 2 virtual seconds.
	if c.Now() != vclock.Time(2*time.Second) {
		t.Fatalf("elapsed = %v, want 2s", c.Now())
	}
	if p.BusyNS() != int64(4*time.Second) {
		t.Fatalf("busy = %d, want 4s", p.BusyNS())
	}
}

func TestUtilizationSampling(t *testing.T) {
	c := vclock.New()
	p := NewPool(4, "cpu")
	var samples []float64
	c.Go("worker", func(r *vclock.Runner) {
		// Occupy 1 of 4 cores for the first second, then idle.
		p.Run(r, time.Second)
		r.Sleep(time.Second)
	})
	c.Go("sampler", func(r *vclock.Runner) {
		// Sample a millisecond off the instant the work ends, so that what
		// the sample sees does not hang on which of two runners woken at
		// one instant runs first.
		r.Sleep(time.Millisecond)
		for i := 0; i < 2; i++ {
			r.Sleep(time.Second)
			samples = append(samples, p.Sample(r.Now()))
		}
	})
	c.Wait()
	if len(samples) != 2 {
		t.Fatalf("samples = %d, want 2", len(samples))
	}
	if samples[0] < 24 || samples[0] > 26 {
		t.Fatalf("first-second utilization = %.1f%%, want 25%%", samples[0])
	}
	if samples[1] != 0 {
		t.Fatalf("idle-second utilization = %.1f%%, want 0%%", samples[1])
	}
	avg := p.AvgUtilization()
	if avg < 12 || avg > 13 {
		t.Fatalf("avg utilization = %.1f%%, want 12.5%%", avg)
	}
}

func TestPoolMinimumOneCore(t *testing.T) {
	p := NewPool(0, "tiny")
	if p.Cores() != 1 {
		t.Fatalf("cores = %d, want 1", p.Cores())
	}
}

func TestAvgUtilizationEmpty(t *testing.T) {
	p := NewPool(2, "idle")
	if p.AvgUtilization() != 0 {
		t.Fatal("unsampled pool should report 0 average utilization")
	}
}
