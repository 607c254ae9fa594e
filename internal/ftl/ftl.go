// Package ftl implements the SSD's Flash Translation Layer with the
// paper's hybrid space allocation (§V-D): the logical NAND address space
// is disaggregated at a configurable point into a block region (backing
// the host file system / Main-LSM) and a key-value region (backing the
// in-device Dev-LSM). Each region has its own page-mapped logical space;
// physical blocks come from a shared pool, so the two interfaces never
// overlap physical pages, exactly as the paper's FTL guarantees.
//
// The FTL is page-mapped with a round-robin-striped write frontier (one
// active block per die) so large writes reach the array's full parallel
// bandwidth, and greedy cost-based garbage collection with valid-page
// migration when the free pool runs low.
package ftl

import (
	"fmt"

	"kvaccel/internal/nand"
	"kvaccel/internal/vclock"
)

// Region selects one side of the disaggregation point.
type Region int

const (
	// BlockRegion backs the traditional block interface (Main-LSM).
	BlockRegion Region = iota
	// KVRegion backs the key-value interface (Dev-LSM).
	KVRegion
	numRegions
)

func (rg Region) String() string {
	switch rg {
	case BlockRegion:
		return "block"
	case KVRegion:
		return "kv"
	}
	return fmt.Sprintf("region(%d)", int(rg))
}

const unmapped = int32(-1)

// Config sizes the two logical regions, in pages. The sum plus
// over-provisioning must fit the physical array.
type Config struct {
	BlockRegionPages int
	KVRegionPages    int
	// GCFreeBlockLow triggers GC when the shared free pool drops to this
	// many blocks; GC reclaims until GCFreeBlockHigh.
	GCFreeBlockLow  int
	GCFreeBlockHigh int
	// MaxFanout bounds the number of concurrent per-page NAND operations
	// a single multi-page request runs (models controller queue depth).
	MaxFanout int
}

// Stats are cumulative FTL counters.
type Stats struct {
	HostPagesWritten int64 // pages written on behalf of callers
	GCPagesMigrated  int64 // extra pages written by GC
	GCRuns           int64
	BlocksErased     int64
}

// WriteAmplification returns (host+GC)/host page writes, or 1 when idle.
func (s Stats) WriteAmplification() float64 {
	if s.HostPagesWritten == 0 {
		return 1
	}
	return float64(s.HostPagesWritten+s.GCPagesMigrated) / float64(s.HostPagesWritten)
}

type blockInfo struct {
	owner      Region
	allocated  bool
	validCount int
	nextPage   int     // write frontier within the block
	lpns       []int32 // reverse map page -> region LPN (-1 invalid)
}

type regionState struct {
	mapping  []int32 // LPN -> PPN
	frontier []int   // per-die active block id, -1 if none
}

// FTL is the translation layer over one NAND array.
type FTL struct {
	arr *nand.Array
	geo nand.Geometry
	cfg Config

	blocks  []blockInfo
	free    []int // free block ids (LIFO)
	regions [numRegions]*regionState
	nextDie int // round-robin die cursor for frontier allocation
	// frontier marks the blocks some region is writing into, for the length
	// of one pickVictim; all false between calls.
	frontier []bool
	// fanouts are finished multi-page requests, kept for their page and
	// worker lists: a request in steady state allocates nothing.
	fanouts []*fanout

	stats Stats
}

// New builds an FTL over arr. It panics if the configured regions plus a
// minimal GC reserve exceed the physical capacity.
func New(arr *nand.Array, cfg Config) *FTL {
	geo := arr.Geometry()
	totalBlocks := geo.Dies() * geo.BlocksPerDie
	needPages := cfg.BlockRegionPages + cfg.KVRegionPages
	if cfg.GCFreeBlockLow < 2 {
		cfg.GCFreeBlockLow = 2
	}
	if cfg.GCFreeBlockHigh <= cfg.GCFreeBlockLow {
		cfg.GCFreeBlockHigh = cfg.GCFreeBlockLow + 2
	}
	if cfg.MaxFanout < 1 {
		cfg.MaxFanout = geo.Dies() * 2
	}
	reserve := cfg.GCFreeBlockHigh + geo.Dies()
	if needPages > (totalBlocks-reserve)*geo.PagesPerBlock {
		panic(fmt.Sprintf("ftl: regions need %d pages but device has %d usable",
			needPages, (totalBlocks-reserve)*geo.PagesPerBlock))
	}
	f := &FTL{arr: arr, geo: geo, cfg: cfg}
	f.blocks = make([]blockInfo, totalBlocks)
	f.frontier = make([]bool, totalBlocks)
	for i := range f.blocks {
		f.blocks[i].lpns = make([]int32, geo.PagesPerBlock)
	}
	f.free = make([]int, totalBlocks)
	for i := range f.free {
		f.free[i] = totalBlocks - 1 - i
	}
	mk := func(pages int) *regionState {
		rs := &regionState{mapping: make([]int32, pages), frontier: make([]int, geo.Dies())}
		for i := range rs.mapping {
			rs.mapping[i] = unmapped
		}
		for i := range rs.frontier {
			rs.frontier[i] = -1
		}
		return rs
	}
	f.regions[BlockRegion] = mk(cfg.BlockRegionPages)
	f.regions[KVRegion] = mk(cfg.KVRegionPages)
	return f
}

// RegionPages returns the logical size of a region in pages.
func (f *FTL) RegionPages(rg Region) int { return len(f.regions[rg].mapping) }

// PageSize returns the underlying NAND page size.
func (f *FTL) PageSize() int { return f.geo.PageSize }

// Dies returns the NAND array's die count: a batch of that many pages
// programs in one page time on an idle array.
func (f *FTL) Dies() int { return f.geo.Dies() }

// Stats returns a snapshot of the cumulative counters.
func (f *FTL) Stats() Stats {
	return f.stats
}

// FreeBlocks returns the size of the shared free-block pool.
func (f *FTL) FreeBlocks() int {
	return len(f.free)
}

func (f *FTL) addrOf(ppn int32) nand.Addr {
	blockID := int(ppn) / f.geo.PagesPerBlock
	page := int(ppn) % f.geo.PagesPerBlock
	die := blockID / f.geo.BlocksPerDie
	return nand.Addr{
		Channel: die / f.geo.Ways,
		Way:     die % f.geo.Ways,
		Block:   blockID % f.geo.BlocksPerDie,
		Page:    page,
	}
}

func ppnOf(blockID, page, pagesPerBlock int) int32 {
	return int32(blockID*pagesPerBlock + page)
}

// allocPage reserves one physical page for (rg, lpn) on the
// round-robin write frontier and updates mappings. Returns the PPN and
// whether the caller must run GC afterwards.
func (f *FTL) allocPage(rg Region, lpn int) (ppn int32, needGC bool) {
	rs := f.regions[rg]
	if lpn < 0 || lpn >= len(rs.mapping) {
		panic(fmt.Sprintf("ftl: lpn %d out of range for %v region (%d pages)", lpn, rg, len(rs.mapping)))
	}
	// Invalidate any prior mapping.
	if old := rs.mapping[lpn]; old != unmapped {
		f.invalidate(old)
	}
	// Find a frontier block with space, cycling dies for parallelism.
	dies := f.geo.Dies()
	for try := 0; try < dies; try++ {
		die := f.nextDie
		f.nextDie = (f.nextDie + 1) % dies
		bid := rs.frontier[die]
		if bid == -1 || f.blocks[bid].nextPage >= f.geo.PagesPerBlock {
			nb, ok := f.takeFreeBlock(die)
			if !ok {
				continue // this die has no free block; try next die
			}
			f.blocks[nb].owner = rg
			f.blocks[nb].allocated = true
			rs.frontier[die] = nb
			bid = nb
		}
		b := &f.blocks[bid]
		page := b.nextPage
		b.nextPage++
		b.validCount++
		b.lpns[page] = int32(lpn)
		ppn = ppnOf(bid, page, f.geo.PagesPerBlock)
		rs.mapping[lpn] = ppn
		return ppn, len(f.free) <= f.cfg.GCFreeBlockLow
	}
	panic("ftl: device out of space (no free block on any die); regions oversized for physical capacity")
}

// takeFreeBlock pops a free block belonging to the given die.
func (f *FTL) takeFreeBlock(die int) (int, bool) {
	for i := len(f.free) - 1; i >= 0; i-- {
		bid := f.free[i]
		if bid/f.geo.BlocksPerDie == die {
			f.free = append(f.free[:i], f.free[i+1:]...)
			return bid, true
		}
	}
	return 0, false
}

func (f *FTL) invalidate(ppn int32) {
	bid := int(ppn) / f.geo.PagesPerBlock
	page := int(ppn) % f.geo.PagesPerBlock
	b := &f.blocks[bid]
	if b.lpns[page] != unmapped {
		b.lpns[page] = unmapped
		b.validCount--
	}
}

// Write maps one logical page of region rg and spends the NAND program
// time, as a one-page WriteMany.
func (f *FTL) Write(r *vclock.Runner, rg Region, lpn int) error {
	return f.WriteMany(r, rg, []int{lpn})
}

// WriteMany writes a batch of logical pages, fanning the NAND programs out
// across dies up to MaxFanout in flight, which is how the controller
// reaches the array's aggregate program bandwidth. It runs GC inline if
// the free pool is low — charging the reclamation cost to the writer, as
// real FTLs do under pressure.
func (f *FTL) WriteMany(r *vclock.Runner, rg Region, lpns []int) error {
	return f.Finish(r, f.Begin(r.Clock(), rg, lpns, false))
}

// Programs is a batch of page operations set going on the array, for
// Finish or FinishStep to see through. The zero value is an empty batch.
type Programs struct {
	job    *fanout
	needGC bool
	err    error // FinishStep's status, once the pages are done
}

// StartWrite maps a batch of logical pages of region rg and sets their
// NAND programs going, fanned out across dies as WriteMany's are, without
// waiting for them: r goes on, and Finish parks it until they are done.
// The fan-out's workers are kernel tasks, so a batch in flight holds no
// goroutine. lpns is not kept.
func (f *FTL) StartWrite(r *vclock.Runner, rg Region, lpns []int) (p Programs) {
	if len(lpns) > 0 {
		p.job, p.needGC = f.allocPages(rg, lpns)
		f.spawn(r.Clock(), p.job, false)
	}
	return p
}

// Begin sets going the batch of a caller that waits for it: WriteMany's
// (lpns mapped and programmed) or, if read, ReadMany's (the mapped ones
// among lpns read). One worker runs on the turns of Finish or FinishStep
// when MaxFanout or the page count allows no more; more are kernel tasks.
func (f *FTL) Begin(clk *vclock.Clock, rg Region, lpns []int, read bool) (p Programs) {
	if read {
		p.job = f.mappedPages(rg, lpns)
	} else {
		p.job, p.needGC = f.allocPages(rg, lpns)
	}
	f.spawn(clk, p.job, true)
	return p
}

// Finish parks r until p's pages are done, runs GC inline if their
// allocations left the free pool low, and returns the first fault (every
// page is still done).
func (f *FTL) Finish(r *vclock.Runner, p Programs) error {
	if p.job == nil {
		return nil
	}
	for !p.job.step(r) {
		r.Park()
	}
	err := f.recycle(p.job)
	if p.needGC {
		f.collect(r)
	}
	return err
}

// FinishStep is Finish as a stepped primitive (see vclock.Clock.GoTask),
// but for GC, which it runs in one vclock.Runner.Call: it reports whether
// p is done, with its first fault, and reports the same until p is reused.
func (f *FTL) FinishStep(r *vclock.Runner, p *Programs) (done bool, err error) {
	if job := p.job; job != nil {
		if !job.step(r) {
			return false, nil
		}
		p.job, p.err = nil, f.recycle(job)
		if p.needGC {
			p.needGC = false
			r.Call(collectCall, f)
			return false, nil
		}
	}
	return true, p.err
}

func collectCall(r *vclock.Runner, f any) { f.(*FTL).collect(r) }

// allocPages maps a batch of logical pages onto the write frontier and
// returns the fan-out over their physical pages.
func (f *FTL) allocPages(rg Region, lpns []int) (job *fanout, needGC bool) {
	job = f.takeFanout()
	job.kv = rg == KVRegion
	for _, lpn := range lpns {
		ppn, gc := f.allocPage(rg, lpn)
		job.ppns = append(job.ppns, ppn)
		needGC = needGC || gc
	}
	f.stats.HostPagesWritten += int64(len(lpns))
	return job, needGC
}

// mappedPages returns the fan-out that reads the physical pages of the
// mapped ones among lpns.
func (f *FTL) mappedPages(rg Region, lpns []int) *fanout {
	job := f.takeFanout()
	job.read = true
	rs := f.regions[rg]
	for _, lpn := range lpns {
		if lpn >= 0 && lpn < len(rs.mapping) && rs.mapping[lpn] != unmapped {
			job.ppns = append(job.ppns, rs.mapping[lpn])
		}
	}
	return job
}

// Read spends the NAND read time for one logical page. Reading an
// unmapped page is an error.
func (f *FTL) Read(r *vclock.Runner, rg Region, lpn int) error {
	rs := f.regions[rg]
	if lpn < 0 || lpn >= len(rs.mapping) {
		return fmt.Errorf("ftl: read lpn %d out of range for %v region", lpn, rg)
	}
	ppn := rs.mapping[lpn]
	if ppn == unmapped {
		return fmt.Errorf("ftl: read of unmapped lpn %d in %v region", lpn, rg)
	}
	return f.arr.ReadPage(r, f.addrOf(ppn))
}

// ReadMany reads a batch of logical pages with die-parallel fanout.
// Unmapped pages are skipped (callers validate separately).
func (f *FTL) ReadMany(r *vclock.Runner, rg Region, lpns []int) error {
	return f.Finish(r, f.Begin(r.Clock(), rg, lpns, true))
}

// Trim invalidates a logical page without touching NAND.
func (f *FTL) Trim(rg Region, lpn int) {
	rs := f.regions[rg]
	if lpn < 0 || lpn >= len(rs.mapping) {
		return
	}
	if ppn := rs.mapping[lpn]; ppn != unmapped {
		f.invalidate(ppn)
		rs.mapping[lpn] = unmapped
	}
}

// TrimRegion invalidates every mapped page in a region — the Dev-LSM
// reset (§V-E step 8) uses this to wipe the KV region in O(mapping).
func (f *FTL) TrimRegion(rg Region) {
	rs := f.regions[rg]
	for lpn, ppn := range rs.mapping {
		if ppn != unmapped {
			f.invalidate(ppn)
			rs.mapping[lpn] = unmapped
		}
	}
}

// fanout is one multi-page request: the physical pages it touches and,
// while it runs, the workers that share them out.
type fanout struct {
	f    *FTL
	ppns []int32
	// read says the request reads its pages; otherwise it programs them.
	// from holds, for a GC migration, the victim page each of ppns is
	// copied from: a migration reads that copy, then programs the page.
	// kv says the request programs key-value region pages, which go in
	// the first admission class (nand.ProgramOp). inline says its one
	// worker runs on the turns of whoever waits for it (spawn).
	read    bool
	kv      bool
	inline  bool
	from    []int32
	workers []fanoutWorker
	wg      vclock.WaitGroup

	first error // first error any worker hit
}

// fanoutWorker is one worker's share of a fanout: pages stride, stride +
// len(workers), ... of it, one NAND op at a time. The worker is a kernel
// task, stepped with a pointer to it.
type fanoutWorker struct {
	job  *fanout
	page int     // the page op is on
	op   nand.Op // the op in flight
}

func (f *FTL) takeFanout() *fanout {
	if n := len(f.fanouts); n > 0 {
		job := f.fanouts[n-1]
		f.fanouts = f.fanouts[:n-1]
		return job
	}
	return &fanout{f: f}
}

// run does each page of job as Finish does a batch Begin set going, and
// returns the first error any worker hit (every page is still attempted,
// so the batch's time model stays intact under faults).
func (f *FTL) run(r *vclock.Runner, job *fanout) error {
	f.spawn(r.Clock(), job, true)
	return f.Finish(r, Programs{job: job})
}

// spawn sets up job's workers, at most MaxFanout, and starts each as a
// kernel task, job.wg counting them down — unless inline is set and there
// is one: it then runs on the turns of whoever steps job.
func (f *FTL) spawn(clk *vclock.Clock, job *fanout, inline bool) {
	workers := min(f.cfg.MaxFanout, len(job.ppns))
	for w := 0; w < workers; w++ {
		job.workers = append(job.workers, fanoutWorker{job: job, page: w})
		job.workers[w].start()
	}
	if job.inline = inline && workers == 1; job.inline {
		return
	}
	job.wg.Add(workers)
	for w := range job.workers {
		clk.GoTask("ftl.fanout", stepFanout, &job.workers[w])
	}
}

// step steps job's inline worker on r, or waits for its tasks, and reports
// whether every page is done.
func (job *fanout) step(r *vclock.Runner) (done bool) {
	if job.inline {
		return job.workers[0].next(r)
	}
	return job.wg.WaitStep(r)
}

// recycle returns the first error job's workers hit and keeps job for a
// later request.
func (f *FTL) recycle(job *fanout) error {
	err := job.first
	job.ppns, job.from, job.workers, job.read, job.kv, job.inline, job.first = job.ppns[:0], job.from[:0], job.workers[:0], false, false, false, nil
	f.fanouts = append(f.fanouts, job)
	return err
}

// stepFanout is a fan-out worker's step.
func stepFanout(w *vclock.Runner, arg any) (done bool) {
	fw := arg.(*fanoutWorker)
	if !fw.next(w) {
		return false
	}
	fw.job.wg.Done()
	return true
}

// next steps the worker's ops on w until one parks, and reports whether
// the worker is out of pages.
func (fw *fanoutWorker) next(w *vclock.Runner) (done bool) {
	job := fw.job
	for job.f.arr.Step(w, &fw.op) {
		job.note(fw.op.Err())
		if len(job.from) > 0 && fw.op.Reads() {
			fw.op = nand.ProgramOp(job.f.addrOf(job.ppns[fw.page]), false)
			continue
		}
		if fw.page += len(job.workers); fw.page >= len(job.ppns) {
			return true
		}
		fw.start()
	}
	return false
}

// start sets up the op that begins the worker's current page.
func (fw *fanoutWorker) start() {
	job := fw.job
	switch {
	case len(job.from) > 0:
		fw.op = nand.ReadOp(job.f.addrOf(job.from[fw.page]))
	case job.read:
		fw.op = nand.ReadOp(job.f.addrOf(job.ppns[fw.page]))
	default:
		fw.op = nand.ProgramOp(job.f.addrOf(job.ppns[fw.page]), job.kv)
	}
}

func (job *fanout) note(err error) {
	if err == nil {
		return
	}
	if job.first == nil {
		job.first = err
	}
}

// collect runs greedy GC until the free pool recovers. The caller's
// runner pays the migration time.
func (f *FTL) collect(r *vclock.Runner) {
	for {
		if len(f.free) >= f.cfg.GCFreeBlockHigh {
			return
		}
		victim := f.pickVictim()
		if victim < 0 {
			return // nothing reclaimable
		}
		b := &f.blocks[victim]
		rg := b.owner
		// Detach each surviving LPN from the victim and remap it to a fresh
		// frontier page, and take the victim off the candidates, before the
		// migration parks, so no write and no other collect that lands
		// meanwhile races it.
		b.allocated = false
		job := f.takeFanout()
		for page, lpn := range b.lpns[:b.nextPage] {
			if lpn == unmapped {
				continue
			}
			b.lpns[page] = unmapped
			ppn, _ := f.allocPage(rg, int(lpn))
			job.from = append(job.from, ppnOf(victim, page, f.geo.PagesPerBlock))
			job.ppns = append(job.ppns, ppn)
		}
		b.validCount = 0
		f.stats.GCRuns++
		f.stats.GCPagesMigrated += int64(len(job.ppns))
		f.stats.BlocksErased++

		// Spend the media time: read survivors, program them, erase.
		// Injected faults during GC model firmware-internal retries: the
		// migration still completes, so errors are deliberately dropped.
		_ = f.run(r, job)
		eraseAddr := f.addrOf(ppnOf(victim, 0, f.geo.PagesPerBlock))
		_ = f.arr.EraseBlock(r, eraseAddr)

		f.blocks[victim].owner = 0
		f.blocks[victim].nextPage = 0
		f.free = append(f.free, victim)
	}
}

// pickVictim chooses the allocated, full, non-frontier block with
// the fewest valid pages (greedy), or -1 if none qualifies.
func (f *FTL) pickVictim() int {
	markFrontier := func(mark bool) {
		for _, rs := range f.regions {
			for _, bid := range rs.frontier {
				if bid >= 0 {
					f.frontier[bid] = mark
				}
			}
		}
	}
	markFrontier(true)
	best, bestValid := -1, 1<<30
	for bid := range f.blocks {
		b := &f.blocks[bid]
		if !b.allocated || f.frontier[bid] || b.nextPage < f.geo.PagesPerBlock {
			continue
		}
		if b.validCount < bestValid {
			best, bestValid = bid, b.validCount
		}
	}
	markFrontier(false)
	if best >= 0 && bestValid >= f.geo.PagesPerBlock {
		return -1 // nothing to gain: every candidate is fully valid
	}
	return best
}
