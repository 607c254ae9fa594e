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
// the media time (tRead/tProg/tErase) — and its end carries the physical
// page number (for an erase, the block's first page). Nil detaches.
func (a *Array) SetTracer(tr *trace.Tracer) { a.tracer = tr }

// ppn returns addr's physical page number — the address fault-rule
// scopes match against.
func (a *Array) ppn(addr Addr) int64 {
	return int64(a.dieIndex(addr))*int64(a.geo.PagesPerDie()) +
		int64(addr.Block)*int64(a.geo.PagesPerBlock) + int64(addr.Page)
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
	return a.run(r, ReadOp(addr))
}

// ProgramPage spends the time to move one page over the channel bus and
// program it on its die. A plan-injected fault models a program failure
// (partial page program: time may have been spent, no data landed).
func (a *Array) ProgramPage(r *vclock.Runner, addr Addr) error {
	return a.run(r, ProgramOp(addr, false))
}

// EraseBlock spends the erase time on the block's die and bumps its wear
// counter.
func (a *Array) EraseBlock(r *vclock.Runner, addr Addr) error {
	return a.run(r, Op{addr: addr, kind: opErase})
}

// run takes op from start to end on r.
func (a *Array) run(r *vclock.Runner, op Op) error {
	for !a.Step(r, &op) {
		r.Park()
	}
	return op.err
}

// Op is one NAND operation in flight — a page read, a page program or a
// block erase — for Step to advance.
type Op struct {
	addr  Addr
	kind  opKind
	first bool // in the first admission class (see ProgramOp)
	stage uint8
	err   error
	span  trace.Span
}

type opKind uint8

const (
	opRead opKind = iota
	opProgram
	opErase
)

// opNames are each kind's fault-plan operation and trace span names.
var opNames = [...]struct {
	fault, span string
	phase       trace.Phase
}{
	opRead:    {"NAND_READ", "tRead", trace.PhaseNANDRead},
	opProgram: {"NAND_PROG", "tProg", trace.PhaseNANDProg},
	opErase:   {"NAND_ERASE", "tErase", trace.PhaseNANDErase},
}

// ReadOp returns a read of the page at addr, not yet started.
func ReadOp(addr Addr) Op { return Op{addr: addr, kind: opRead} }

// ProgramOp returns a program of the page at addr, not yet started. If
// first is set, the program is in the first admission class on its die
// and its channel bus: a die or bus that comes free goes to the
// longest-waiting first-class op there before any other
// (vclock.Semaphore's AcquireFirstStep). The FTL puts the programs of its
// key-value region writes in it.
func ProgramOp(addr Addr, first bool) Op { return Op{addr: addr, kind: opProgram, first: first} }

// Reads reports whether op is a page read.
func (op *Op) Reads() bool { return op.kind == opRead }

// Err returns the error a finished op ended with.
func (op *Op) Err() error { return op.err }

// Step advances op on r as a stepped primitive (see vclock.Clock.GoTask)
// and reports whether it is over. First the fault plan is consulted: an
// injected delay is spent on r, and an injected error ends the op before
// any media time. Then the op's span opens and it spends its media time on
// the die and its transfer time on the channel bus — sensing before the
// transfer for a read, after it for a program — and the span closes.
// Until the op is over r is parked, and the caller hands the baton on and
// steps again when r's turn comes.
func (a *Array) Step(r *vclock.Runner, op *Op) (done bool) {
	switch op.stage {
	case 0:
		a.check(op.addr)
		out := a.plan.Decide(opNames[op.kind].fault, a.ppn(op.addr))
		op.err, op.stage = out.Err, 1
		if out.Delay > 0 {
			r.SleepStep(out.Delay)
			return false
		}
		fallthrough
	case 1:
		if op.err != nil {
			return true
		}
		op.span = a.tracer.Begin(r, opNames[op.kind].phase, opNames[op.kind].span)
		op.stage = 2
		fallthrough
	case 2, 3:
		for ; op.stage <= 3; op.stage++ {
			if res, d := a.use(op, (op.stage == 2) == (op.kind == opProgram)); !res.UseClassStep(r, d, op.first) {
				return false
			}
		}
	}
	op.span.EndArg(r, a.ppn(op.addr))
	switch op.kind {
	case opRead:
		a.stats.PagesRead++
		a.stats.BytesRead += int64(a.geo.PageSize)
	case opProgram:
		a.stats.PagesProgrammed++
		a.stats.BytesProgrammed += int64(a.geo.PageSize)
	default:
		a.stats.BlocksErased++
		a.eraseCounts[a.dieIndex(op.addr)*a.geo.BlocksPerDie+op.addr.Block]++
	}
	return true
}

// use returns the resource op occupies, and for how long, on the channel
// bus or on its die. An erase moves nothing over the bus.
func (a *Array) use(op *Op, bus bool) (*vclock.Resource, time.Duration) {
	if !bus {
		return a.dies[a.dieIndex(op.addr)], [...]time.Duration{opRead: a.timing.ReadPage, opProgram: a.timing.ProgramPage, opErase: a.timing.EraseBlock}[op.kind]
	}
	if op.kind == opErase {
		return nil, 0
	}
	return a.channels[op.addr.Channel], a.busTime(a.geo.PageSize)
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
