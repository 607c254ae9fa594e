// Package nand is a discrete-event model of the Cosmos+ OpenSSD NAND
// subsystem: 4 channels × 8 ways of flash dies, with per-die program/read/
// erase latencies and a per-channel bus. The model reproduces the board's
// sustained-bandwidth envelope (~630 MB/s program-limited peak) that drives
// every write-stall phenomenon in the paper; it stores no payload bytes —
// data lives in the layers above, the NAND layer spends only time.
package nand

import (
	"fmt"
	"time"

	"kvaccel/internal/faults"
	"kvaccel/internal/trace"
	"kvaccel/internal/vclock"
)

// Geometry describes the flash array's shape.
type Geometry struct {
	Channels      int // independent channel buses
	Ways          int // dies per channel
	BlocksPerDie  int
	PagesPerBlock int
	PageSize      int // bytes
}

// CosmosGeometry mirrors the 1 TB, 4-channel, 8-way Cosmos+ module at the
// paper's scale.
func CosmosGeometry() Geometry {
	return Geometry{Channels: 4, Ways: 8, BlocksPerDie: 512, PagesPerBlock: 256, PageSize: 16 * 1024}
}

// Dies returns the total die count.
func (g Geometry) Dies() int { return g.Channels * g.Ways }

// PagesPerDie returns pages per die.
func (g Geometry) PagesPerDie() int { return g.BlocksPerDie * g.PagesPerBlock }

// TotalPages returns the device's physical page count.
func (g Geometry) TotalPages() int { return g.Dies() * g.PagesPerDie() }

// TotalBytes returns the raw capacity in bytes.
func (g Geometry) TotalBytes() int64 { return int64(g.TotalPages()) * int64(g.PageSize) }

// Timing holds the flash operation latencies.
type Timing struct {
	ReadPage    time.Duration
	ProgramPage time.Duration
	EraseBlock  time.Duration
	// ChannelMBps is the per-channel bus transfer rate in MB/s.
	ChannelMBps float64
}

// CosmosTiming yields ~630 MB/s sustained program bandwidth with the
// Cosmos geometry (16 KiB / 800 µs ≈ 20 MB/s per die × 32 dies).
func CosmosTiming() Timing {
	return Timing{
		ReadPage:    60 * time.Microsecond,
		ProgramPage: 800 * time.Microsecond,
		EraseBlock:  3 * time.Millisecond,
		ChannelMBps: 400,
	}
}

// Addr names one physical page (or, for erase, its containing block).
type Addr struct {
	Channel, Way, Block, Page int
}

func (a Addr) String() string {
	return fmt.Sprintf("ch%d/w%d/b%d/p%d", a.Channel, a.Way, a.Block, a.Page)
}

// Stats are cumulative operation counters.
type Stats struct {
	PagesRead       int64
	PagesProgrammed int64
	BlocksErased    int64
	BytesRead       int64
	BytesProgrammed int64
}

// Array is the simulated flash array.
type Array struct {
	geo    Geometry
	timing Timing

	channels []*vclock.Resource // per-channel bus
	dies     []*vclock.Resource // per-die plane

	stats Stats

	eraseCounts []int64 // per (die, block) wear

	plan   *faults.Plan  // fault plan; nil injects nothing
	tracer *trace.Tracer // nil records nothing
}

// SetFaultPlan installs the fault plan every NAND operation consults;
// rules scoped to a physical-page extent produce region-scoped media
// faults (the FTL maps logical regions onto physical extents).
func (a *Array) SetFaultPlan(p *faults.Plan) { a.plan = p }

// SetTracer installs the tracer NAND operations record spans to. Each
// span covers the op's full array residency — die/channel queueing plus
// the media time (tRead/tProg/tErase). Nil detaches.
func (a *Array) SetTracer(tr *trace.Tracer) { a.tracer = tr }

// ppn returns addr's physical page number — the address fault-rule
// scopes match against.
func (a *Array) ppn(addr Addr) int64 {
	return int64(a.dieIndex(addr))*int64(a.geo.PagesPerDie()) +
		int64(addr.Block)*int64(a.geo.PagesPerBlock) + int64(addr.Page)
}

// consult applies the fault plan to one operation: injected latency is
// spent on r, injected errors are returned before any media time.
func (a *Array) consult(r *vclock.Runner, op string, addr Addr) error {
	out := a.plan.Decide(op, a.ppn(addr))
	if out.Delay > 0 {
		r.Sleep(out.Delay)
	}
	return out.Err
}

// New builds an Array with the given geometry and timing.
func New(geo Geometry, timing Timing) *Array {
	a := &Array{geo: geo, timing: timing}
	a.channels = make([]*vclock.Resource, geo.Channels)
	for i := range a.channels {
		a.channels[i] = vclock.NewResource(1, fmt.Sprintf("nand.ch%d", i))
	}
	a.dies = make([]*vclock.Resource, geo.Dies())
	for i := range a.dies {
		a.dies[i] = vclock.NewResource(1, fmt.Sprintf("nand.die%d", i))
	}
	a.eraseCounts = make([]int64, geo.Dies()*geo.BlocksPerDie)
	return a
}

// Geometry returns the array's geometry.
func (a *Array) Geometry() Geometry { return a.geo }

func (a *Array) dieIndex(addr Addr) int { return addr.Channel*a.geo.Ways + addr.Way }

func (a *Array) busTime(bytes int) time.Duration {
	if a.timing.ChannelMBps <= 0 {
		return 0
	}
	return time.Duration(float64(bytes) / (a.timing.ChannelMBps * 1e6) * float64(time.Second))
}

func (a *Array) check(addr Addr) {
	if addr.Channel < 0 || addr.Channel >= a.geo.Channels ||
		addr.Way < 0 || addr.Way >= a.geo.Ways ||
		addr.Block < 0 || addr.Block >= a.geo.BlocksPerDie ||
		addr.Page < 0 || addr.Page >= a.geo.PagesPerBlock {
		panic("nand: address out of range: " + addr.String())
	}
}

// ReadPage spends the time to sense one page on its die and move it over
// the channel bus. A plan-injected fault surfaces as an uncorrectable
// read error.
func (a *Array) ReadPage(r *vclock.Runner, addr Addr) error {
	return a.readPage(r, addr, false)
}

// ReadPageBackground is ReadPage at background priority: the die and bus
// admit it only when no host-path operation is queued. Device-internal
// bulk work (offloaded merges) reads with it so host I/O latency sees at
// most one in-service operation of interference — the discipline real
// controllers implement with operation suspension.
func (a *Array) ReadPageBackground(r *vclock.Runner, addr Addr) error {
	return a.readPage(r, addr, true)
}

func (a *Array) readPage(r *vclock.Runner, addr Addr, bg bool) error {
	a.check(addr)
	if err := a.consult(r, "NAND_READ", addr); err != nil {
		return err
	}
	sp := a.tracer.Begin(r, trace.PhaseNANDRead, "tRead")
	if bg {
		a.dies[a.dieIndex(addr)].UseBackground(r, a.timing.ReadPage)
		a.channels[addr.Channel].UseBackground(r, a.busTime(a.geo.PageSize))
	} else {
		a.dies[a.dieIndex(addr)].Use(r, a.timing.ReadPage)
		a.channels[addr.Channel].Use(r, a.busTime(a.geo.PageSize))
	}
	sp.End(r)
	a.stats.PagesRead++
	a.stats.BytesRead += int64(a.geo.PageSize)
	return nil
}

// ProgramPage spends the time to move one page over the channel bus and
// program it on its die. A plan-injected fault models a program failure
// (partial page program: time may have been spent, no data landed).
func (a *Array) ProgramPage(r *vclock.Runner, addr Addr) error {
	return a.programPage(r, addr, false)
}

// ProgramPageBackground is ProgramPage at background priority (see
// ReadPageBackground).
func (a *Array) ProgramPageBackground(r *vclock.Runner, addr Addr) error {
	return a.programPage(r, addr, true)
}

func (a *Array) programPage(r *vclock.Runner, addr Addr, bg bool) error {
	a.check(addr)
	if err := a.consult(r, "NAND_PROG", addr); err != nil {
		return err
	}
	sp := a.tracer.Begin(r, trace.PhaseNANDProg, "tProg")
	if bg {
		a.channels[addr.Channel].UseBackground(r, a.busTime(a.geo.PageSize))
		a.dies[a.dieIndex(addr)].UseBackground(r, a.timing.ProgramPage)
	} else {
		a.channels[addr.Channel].Use(r, a.busTime(a.geo.PageSize))
		a.dies[a.dieIndex(addr)].Use(r, a.timing.ProgramPage)
	}
	sp.End(r)
	a.stats.PagesProgrammed++
	a.stats.BytesProgrammed += int64(a.geo.PageSize)
	return nil
}

// EraseBlock spends the erase time on the block's die and bumps its wear
// counter.
func (a *Array) EraseBlock(r *vclock.Runner, addr Addr) error {
	a.check(addr)
	if err := a.consult(r, "NAND_ERASE", addr); err != nil {
		return err
	}
	sp := a.tracer.Begin(r, trace.PhaseNANDErase, "tErase")
	a.dies[a.dieIndex(addr)].Use(r, a.timing.EraseBlock)
	sp.End(r)
	a.stats.BlocksErased++
	a.eraseCounts[a.dieIndex(addr)*a.geo.BlocksPerDie+addr.Block]++
	return nil
}

// EraseCount returns the wear count of the block containing addr.
func (a *Array) EraseCount(addr Addr) int64 {
	a.check(addr)
	return a.eraseCounts[a.dieIndex(addr)*a.geo.BlocksPerDie+addr.Block]
}

// Stats returns cumulative counters.
func (a *Array) Stats() Stats { return a.stats }

// SustainedProgramMBps estimates the array's program-limited peak
// bandwidth in MB/s — the paper's "~630 MB/s" device ceiling.
func (a *Array) SustainedProgramMBps() float64 {
	perDie := float64(a.geo.PageSize) / a.timing.ProgramPage.Seconds() / 1e6
	dieBound := perDie * float64(a.geo.Dies())
	busBound := a.timing.ChannelMBps * float64(a.geo.Channels)
	if busBound < dieBound {
		return busBound
	}
	return dieBound
}
