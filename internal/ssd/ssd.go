// Package ssd assembles the hybrid dual-interface SSD (§V-D): one NAND
// array and FTL whose logical space is disaggregated at a configurable
// point into a block region — served over the traditional block command
// set to the host file system — and a key-value region served over the
// NVMe KV command set by the in-device Dev-LSM. Both interfaces share the
// same PCIe link, the same FTL, and the same physical dies, exactly the
// single-device property the paper's cost argument rests on.
//
// Every host-visible operation crosses the boundary as an nvme.Command on
// a queue pair: the submitter pays the doorbell, the device-side
// dispatcher executes the command body (PCIe DMA, ARM processing, NAND)
// on its own runner, and the submitter awaits the completion. Large block
// I/O splits at the MDTS boundary into several commands, so with queue
// depth > 1 one chunk's DMA overlaps another's NAND program — the overlap
// the paper's redirected-write throughput rests on.
package ssd

import (
	"fmt"
	"time"

	"kvaccel/internal/cpu"
	"kvaccel/internal/devlsm"
	"kvaccel/internal/faults"
	"kvaccel/internal/ftl"
	"kvaccel/internal/memtable"
	"kvaccel/internal/nand"
	"kvaccel/internal/nvme"
	"kvaccel/internal/pcie"
	"kvaccel/internal/trace"
	"kvaccel/internal/vclock"
)

// Config describes the device.
type Config struct {
	Geometry nand.Geometry
	Timing   nand.Timing
	PCIe     pcie.Config
	// NVMe sets the queueing constants of the host interface: per-queue
	// depth, firmware slots, doorbell and completion latencies.
	NVMe nvme.Config

	// BlockRegionBytes and KVRegionBytes place the disaggregation point:
	// the split of the logical NAND address space between interfaces.
	BlockRegionBytes int64
	KVRegionBytes    int64

	// FTLConfig tunes GC; region page counts are derived from the byte
	// splits above.
	GCFreeBlockLow  int
	GCFreeBlockHigh int

	DevLSM devlsm.Config

	// KVCommandOverhead is the NVMe command-processing cost the ARM core
	// pays per KV (and DSM) command beyond the work devlsm itself charges.
	KVCommandOverhead time.Duration
	// DMAChunkSize is the bulk-scan DMA unit (512 KiB on the paper's
	// platform — the largest transfer their DMA engine supports).
	DMAChunkSize int
	// MaxTransferBytes is the MDTS equivalent: the largest transfer one
	// block command may carry. Larger I/O splits into multiple commands
	// that overlap at QD>1. 0 means DMAChunkSize.
	MaxTransferBytes int
	// IOQueues is the number of queue pairs each block namespace stripes
	// its commands across (multi-queue NVMe); at least 1.
	IOQueues int

	// Faults is the shared fault plan consulted by the NVMe dispatcher
	// (per-opcode rules) and the NAND array (physical-extent rules). Nil
	// means no injection.
	Faults *faults.Plan

	// Trace is propagated to the NVMe dispatcher (queue residency and
	// firmware-execution spans), the NAND array (tRead/tProg/tErase), and
	// the Dev-LSM (KV commands, device flushes). Nil disables tracing.
	Trace *trace.Tracer
}

// CosmosConfig is the paper's Cosmos+ OpenSSD board (§VI-A) at scale 1:
// 630 MB/s of NAND behind PCIe Gen2 ×8, one ARM Cortex-A9 core paying
// 3 µs to parse each KV command, and the Dev-LSM's own costs.
// machine.DeviceConfig renders it at other scales.
func CosmosConfig() Config {
	return Config{
		Geometry:          nand.CosmosGeometry(),
		Timing:            nand.CosmosTiming(),
		PCIe:              pcie.Gen2x8(),
		NVMe:              nvme.DefaultConfig(),
		BlockRegionBytes:  int64(6) << 30,
		KVRegionBytes:     int64(2) << 30,
		DevLSM:            devlsm.DefaultConfig(),
		KVCommandOverhead: 3 * time.Microsecond,
		DMAChunkSize:      512 << 10,
		IOQueues:          1,
	}
}

// Device is the assembled dual-interface SSD.
type Device struct {
	cfg   Config
	Array *nand.Array
	FTL   *ftl.FTL
	Link  *pcie.Link
	ARM   *cpu.Pool
	Dev   *devlsm.DevLSM
	NVMe  *nvme.Dispatcher
	clk   *vclock.Clock
	full  *KVRegion // full-region KV view wrapping Dev
}

// New builds the device on clk. The ARM pool models the single Cortex-A9
// core that runs Dev-LSM I/O, flush, and compaction (§VI-A); the clock
// hosts the NVMe dispatcher's transient device-side runners.
func New(clk *vclock.Clock, cfg Config) *Device {
	if cfg.DMAChunkSize < 1 {
		panic("ssd: Config needs DMAChunkSize >= 1")
	}
	if cfg.IOQueues < 1 {
		panic("ssd: Config needs IOQueues >= 1")
	}
	arr := nand.New(cfg.Geometry, cfg.Timing)
	pageSize := int64(cfg.Geometry.PageSize)
	fcfg := ftl.Config{
		BlockRegionPages: int(cfg.BlockRegionBytes / pageSize),
		KVRegionPages:    int(cfg.KVRegionBytes / pageSize),
		GCFreeBlockLow:   cfg.GCFreeBlockLow,
		GCFreeBlockHigh:  cfg.GCFreeBlockHigh,
	}
	f := ftl.New(arr, fcfg)
	arm := cpu.NewPool(1, "ssd-arm")
	if cfg.MaxTransferBytes <= 0 {
		cfg.MaxTransferBytes = cfg.DMAChunkSize
	}
	cfg.DevLSM.Trace = cfg.Trace
	d := &Device{
		cfg:   cfg,
		Array: arr,
		FTL:   f,
		Link:  pcie.NewLink(cfg.PCIe),
		ARM:   arm,
		Dev:   devlsm.New(f, arm, cfg.DevLSM),
		NVMe:  nvme.NewDispatcher(clk, cfg.NVMe),
		clk:   clk,
	}
	d.full = &KVRegion{dev: d, lsm: d.Dev, qp: d.NVMe.NewQueuePair("kv", 1)}
	if cfg.Faults != nil {
		d.NVMe.SetFaultPlan(cfg.Faults)
		arr.SetFaultPlan(cfg.Faults)
	}
	if cfg.Trace != nil {
		d.NVMe.SetTracer(cfg.Trace)
		arr.SetTracer(cfg.Trace)
	}
	return d
}

// SetFaultPlan (re)binds the fault plan on a built device; tests use it
// to swap plans between phases without rebuilding the stack.
func (d *Device) SetFaultPlan(p *faults.Plan) {
	d.cfg.Faults = p
	d.NVMe.SetFaultPlan(p)
	d.Array.SetFaultPlan(p)
}

// FaultPlan returns the device's fault plan (possibly nil).
func (d *Device) FaultPlan() *faults.Plan { return d.cfg.Faults }

// Sever models a power cut: every queued and in-flight command completes
// with faults.ErrDeviceGone and new submissions fail fast until the next
// Attach. Device-side persistent state (NAND, FTL tables, Dev-LSM) is
// capacitor-backed on the paper's platform and survives; host DRAM state
// is the caller's problem (see fs.Crash).
func (d *Device) Sever() { d.NVMe.Sever() }

// Severed reports whether the device is currently cut off.
func (d *Device) Severed() bool { return d.NVMe.Severed() }

// Config returns the device's configuration.
func (d *Device) Config() Config { return d.cfg }

// maxTransferPages returns the MDTS in logical pages (at least 1).
func (d *Device) maxTransferPages() int {
	n := d.cfg.MaxTransferBytes / d.cfg.Geometry.PageSize
	if n < 1 {
		n = 1
	}
	return n
}

// QueueStats snapshots every queue pair on the device.
func (d *Device) QueueStats() []nvme.QueueStats {
	return d.NVMe.Stats(d.clk.Now())
}

// Attach rebinds the device to a new clock. The SSD's state (NAND,
// FTL, Dev-LSM) survives a host restart, but each simulation phase runs
// on a fresh clock; re-attach before issuing commands from the new
// phase's runners. All queues must be idle.
func (d *Device) Attach(clk *vclock.Clock) {
	d.NVMe.Attach(clk)
	d.clk = clk
}

// BlockRegionPages returns the block region's size in logical pages —
// the quantity callers partition when handing each tenant or shard its
// own BlockNamespace.
func (d *Device) BlockRegionPages() int { return d.FTL.RegionPages(ftl.BlockRegion) }

// ---- Block interface (fs.BlockDevice) ----

// BlockNS is the block-interface namespace over the block region; it
// satisfies fs.BlockDevice. Multiple namespaces may partition the region
// for multi-tenancy. Each namespace owns IOQueues queue pairs and stripes
// its commands across them round-robin.
type BlockNS struct {
	dev    *Device
	offset int // first region LPN of this namespace
	pages  int
	qps    []*nvme.QueuePair
	free   freeList[blkCmd]

	next int // round-robin stripe cursor
}

// BlockNamespace returns a namespace covering [offsetPages,
// offsetPages+pages) of the block region. Pass 0, 0 for the full region.
func (d *Device) BlockNamespace(offsetPages, pages int) *BlockNS {
	total := d.FTL.RegionPages(ftl.BlockRegion)
	if pages <= 0 {
		pages = total - offsetPages
	}
	if offsetPages < 0 || offsetPages+pages > total {
		panic("ssd: block namespace out of region bounds")
	}
	ns := &BlockNS{dev: d, offset: offsetPages, pages: pages}
	for i := 0; i < d.cfg.IOQueues; i++ {
		name := fmt.Sprintf("blk@%d", offsetPages)
		if d.cfg.IOQueues > 1 {
			name = fmt.Sprintf("blk@%d.q%d", offsetPages, i)
		}
		ns.qps = append(ns.qps, d.NVMe.NewQueuePair(name, 1))
	}
	return ns
}

// PageSize returns the logical page size.
func (ns *BlockNS) PageSize() int { return ns.dev.cfg.Geometry.PageSize }

// Pages returns the namespace's capacity in pages.
func (ns *BlockNS) Pages() int { return ns.pages }

// pick returns the next queue pair in the namespace's round-robin stripe.
func (ns *BlockNS) pick() *nvme.QueuePair {
	if len(ns.qps) == 1 {
		return ns.qps[0]
	}
	q := ns.qps[ns.next%len(ns.qps)]
	ns.next++
	return q
}

// check panics unless every page of lpns lies inside the namespace. The
// block paths call it before they queue anything, so a bad request leaves
// the device untouched.
func (ns *BlockNS) check(lpns []int) {
	for _, l := range lpns {
		if l < 0 || l >= ns.pages {
			panic("ssd: block I/O outside namespace")
		}
	}
}

// translate writes the region LPNs of the checked namespace-relative lpns
// over dst's storage and returns them.
func (ns *BlockNS) translate(dst, lpns []int) []int {
	dst = dst[:0]
	for _, l := range lpns {
		dst = append(dst, l+ns.offset)
	}
	return dst
}

// WritePages posts WRITE commands (split at the MDTS boundary) and awaits
// their completions; each command DMAs its chunk over PCIe and programs
// it via the FTL on a dispatcher worker, so at QD>1 one chunk's DMA
// overlaps another's NAND program.
func (ns *BlockNS) WritePages(r *vclock.Runner, lpns []int) error {
	return ns.transfer(r, blkWrite, lpns, false)
}

// WritePagesBackground is WritePages with the commands tagged Background:
// maintenance traffic (flush output, compaction writes) the queue stats
// keep out of the foreground admission and latency numbers. The service
// path — PCIe, FTL, NAND — is identical.
func (ns *BlockNS) WritePagesBackground(r *vclock.Runner, lpns []int) error {
	return ns.transfer(r, blkWrite, lpns, true)
}

// ReadPages posts READ commands (split at the MDTS boundary) and awaits
// their completions; each command reads via the FTL and DMAs its chunk
// back to the host.
func (ns *BlockNS) ReadPages(r *vclock.Runner, lpns []int) error {
	return ns.transfer(r, blkRead, lpns, false)
}

// ReadPagesBackground is ReadPages with the commands tagged Background
// (compaction input reads); accounting
// only, same service path.
func (ns *BlockNS) ReadPagesBackground(r *vclock.Runner, lpns []int) error {
	return ns.transfer(r, blkRead, lpns, true)
}

// transfer posts one op command per MDTS-sized chunk of lpns across the
// namespace's stripe, then awaits every completion and returns the first
// error status among them.
func (ns *BlockNS) transfer(r *vclock.Runner, op blkOp, lpns []int, background bool) error {
	if len(lpns) == 0 {
		return nil
	}
	ns.check(lpns)
	ps := ns.PageSize()
	maxPages := ns.dev.maxTransferPages()
	var inflight [maxInflight]*blkCmd
	cmds := inflight[:0]
	for start := 0; start < len(lpns); start += maxPages {
		c := ns.cmd(op)
		c.lpns = ns.translate(c.lpns, lpns[start:min(start+maxPages, len(lpns))])
		c.Bytes = len(c.lpns) * ps
		c.Background = background
		c.q = ns.pick()
		c.q.Submit(r, &c.Command)
		cmds = append(cmds, c)
	}
	var first error
	for _, c := range cmds {
		if err := c.q.Await(r, &c.Command); err != nil && first == nil {
			first = err
		}
		ns.release(c)
	}
	return first
}

// TrimPages invalidates pages as one NVMe Dataset Management (deallocate)
// command: the range list crosses PCIe and the firmware pays the command
// processing cost before dropping the mappings. No media time is spent.
func (ns *BlockNS) TrimPages(r *vclock.Runner, lpns []int) error {
	if len(lpns) == 0 {
		return nil
	}
	ns.check(lpns)
	// DSM carries up to 256 16-byte range descriptors per command; count
	// contiguous LPN runs to size the payload.
	ranges := 1
	for i := 1; i < len(lpns); i++ {
		if lpns[i] != lpns[i-1]+1 {
			ranges++
		}
	}
	c := ns.cmd(blkTrim)
	c.lpns = ns.translate(c.lpns, lpns)
	c.Bytes = kvHeader + 16*ranges
	err := ns.pick().Do(r, &c.Command)
	ns.release(c)
	return err
}

// ---- Key-value interface (NVMe KV command set) ----

const kvHeader = 64 // command header bytes per KV command

// receive DMAs a command's payload to the device and charges the
// per-command firmware parse cost.
func (d *Device) receive(r *vclock.Runner, bytes int) {
	d.Link.Transfer(r, pcie.HostToDevice, bytes)
	if d.cfg.KVCommandOverhead > 0 {
		d.ARM.Run(r, d.cfg.KVCommandOverhead)
	}
}

// KVIterator is the host-visible iterator over the KV interface (SEEK /
// NEXT commands per the iterator-extended KVSSD design [24]). Records
// stream back over PCIe as the cursor advances. Each cursor operation is
// one queued command; the cursor itself is single-runner, like a file
// handle.
type KVIterator struct {
	s  *KVRegion
	r  *vclock.Runner
	it *devlsm.Iterator
}

// do runs one cursor command synchronously; its body points the
// device-side cursor's NAND accounting at the worker executing it.
func (it *KVIterator) do(op kvOp, key []byte) {
	if it.it == nil {
		return // the open command itself failed; the cursor never existed
	}
	c := it.s.cmd(op, kvHeader+len(key))
	c.it, c.key = it, key
	// Iterator cursor faults invalidate the cursor rather than surface a
	// status; a severed device simply leaves the cursor where it was.
	_ = it.s.qp.Do(it.r, &c.Command)
	it.s.release(c)
}

// Seek issues a SEEK command.
func (it *KVIterator) Seek(key []byte) { it.do(kvSeek, key) }

// SeekToFirst positions at the smallest buffered key.
func (it *KVIterator) SeekToFirst() { it.do(kvSeekToFirst, nil) }

// Next issues a NEXT command.
func (it *KVIterator) Next() { it.do(kvNext, nil) }

func (it *KVIterator) transferCurrent(w *vclock.Runner) {
	if it.it.Valid() {
		e := it.it.Entry()
		it.s.dev.Link.Transfer(w, pcie.DeviceToHost, 16+len(e.Key)+len(e.Value))
	}
}

// Valid reports whether the cursor is on an entry. A cursor whose open
// command failed (severed or faulted device) is never valid.
func (it *KVIterator) Valid() bool { return it.it != nil && it.it.Valid() }

// Entry returns the current record.
func (it *KVIterator) Entry() memtable.Entry { return it.it.Entry() }
