// Package cpu models a pool of processor cores in virtual time.
//
// The paper's host is a Xeon Gold 6226R limited to 8 cores; the Cosmos+
// controller contributes one ARM Cortex-A9 core for Dev-LSM work. Engine
// code charges compute work (memtable inserts, merge-sort during
// compaction, checksum/encode work) to a Pool; utilization — the
// denominator of the paper's efficiency metric (Eq. 1) — falls out of the
// busy-time accounting.
package cpu

import (
	"time"

	"kvaccel/internal/vclock"
)

// Pool is a fixed set of cores scheduled FIFO in virtual time.
type Pool struct {
	res   *vclock.Resource
	cores int

	lastBusyNS int64
	lastSample vclock.Time
	utilSum    float64 // sum of sampled utilizations (for averaging)
	utilN      int
}

// NewPool returns a pool of n cores.
func NewPool(n int, label string) *Pool {
	if n < 1 {
		n = 1
	}
	return &Pool{res: vclock.NewResource(n, label), cores: n}
}

// Cores returns the number of cores in the pool.
func (p *Pool) Cores() int { return p.cores }

// Run charges d of compute to one core, queueing if all cores are busy.
func (p *Pool) Run(r *vclock.Runner, d time.Duration) {
	p.res.Use(r, d)
}

// BusyNS returns cumulative core-busy nanoseconds.
func (p *Pool) BusyNS() int64 { return p.res.BusyNS() }

// Sample records utilization over the interval since the previous Sample
// call and returns it as a percentage of total core capacity (0–100).
// Experiments call it once per virtual second.
func (p *Pool) Sample(now vclock.Time) float64 {
	busy := p.res.BusyNS()
	interval := int64(now - p.lastSample)
	var util float64
	if interval > 0 {
		util = 100 * float64(busy-p.lastBusyNS) / (float64(interval) * float64(p.cores))
		if util > 100 {
			util = 100
		}
	}
	p.lastBusyNS = busy
	p.lastSample = now
	p.utilSum += util
	p.utilN++
	return util
}

// AvgUtilization returns the mean of all sampled utilizations (percent).
func (p *Pool) AvgUtilization() float64 {
	if p.utilN == 0 {
		return 0
	}
	return p.utilSum / float64(p.utilN)
}
