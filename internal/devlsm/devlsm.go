// Package devlsm implements the Dev-LSM: the lightweight LSM-tree that
// runs inside the SSD controller on the key-value region of the
// disaggregated NAND space (§V-B, §V-D). It is the paper's temporary
// write buffer: during host write stalls the KVACCEL controller redirects
// PUTs here over the KV interface, and the rollback mechanism later
// drains it back into the Main-LSM with an iterator-based bulky range
// scan (§V-E).
//
// Design follows PinK/iLSM-style KV-SSDs: a device-DRAM memtable, sorted
// runs flushed page-aligned onto the KV region (each record never spans a
// flash page, so a point read costs exactly one page), an optional
// in-device merge when runs pile up, and — deliberately — no read cache,
// which is why Dev-LSM range scans lag Main-LSM's (Table V).
//
// The write buffer is double-buffered, as RocksDB's
// max_write_buffer_number=2: the put that fills the active memtable seals
// it and returns, and one background controller runner builds the sealed
// buffer's run and programs its pages in waves of one page per die as
// they are built. A put waits only when the active buffer fills while the
// sealed one is still flushing. Device DRAM is capacitor-backed, so the
// sealed buffer is as durable as the active one.
//
// A full key-value region is a status, not a failure. A flush that finds
// too few free pages for its run leaves the sealed buffer where it is,
// readable and not installed, and the Dev-LSM is full (Full) until Reset:
// the device refuses the KV puts it can no longer flush with
// faults.ErrCapacityExceeded, so the host writes elsewhere and drains.
package devlsm

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"kvaccel/internal/cpu"
	"kvaccel/internal/encoding"
	"kvaccel/internal/faults"
	"kvaccel/internal/fold"
	"kvaccel/internal/freelist"
	"kvaccel/internal/ftl"
	"kvaccel/internal/iterkit"
	"kvaccel/internal/memtable"
	"kvaccel/internal/trace"
	"kvaccel/internal/vclock"
)

// Config tunes the Dev-LSM.
type Config struct {
	// MemtableBytes is the budget of each of the two device-DRAM write
	// buffers: the active one and the sealed one being flushed.
	MemtableBytes int64
	// MaxRuns triggers an in-device merge when exceeded (if
	// CompactionEnabled).
	MaxRuns int
	// CompactionEnabled turns the in-device merge on. The paper disables
	// Dev-LSM compaction for the write-only workload A (§VI-C).
	CompactionEnabled bool

	// ARM CPU costs per operation on the controller core.
	PutCPU       time.Duration
	GetCPU       time.Duration
	ScanCPUPerKB time.Duration

	// Trace records KV command and device-flush spans. Nil (the default)
	// disables tracing at nil-check cost.
	Trace *trace.Tracer
}

// DefaultConfig models the Dev-LSM on the Cosmos+ board's one ARM
// Cortex-A9 controller core at scale 1: two 4 MiB device-DRAM buffers and
// microseconds of ARM time per command (machine.DeviceConfig scales the
// costs).
func DefaultConfig() Config {
	return Config{
		MemtableBytes:     4 << 20,
		MaxRuns:           8,
		CompactionEnabled: false,
		PutCPU:            4 * time.Microsecond,
		GetCPU:            15 * time.Microsecond,
		ScanCPUPerKB:      2 * time.Microsecond,
	}
}

// Stats are cumulative Dev-LSM counters.
type Stats struct {
	Puts        int64
	Gets        int64
	Flushes     int64
	Compactions int64
	Resets      int64
	Scans       int64
	BytesIn     int64
	// BufferWaits counts puts that filled the active buffer while the
	// sealed one was still flushing, and BufferWaitNS the virtual time
	// they waited for that flush.
	BufferWaits  int64
	BufferWaitNS int64
	// FlushNS is the virtual time from sealing a buffer to installing its
	// run, summed over Flushes: the window in which a put that fills the
	// next buffer would wait.
	FlushNS int64
}

// MeanFlush returns the mean virtual time from seal to install.
func (s Stats) MeanFlush() time.Duration {
	if s.Flushes == 0 {
		return 0
	}
	return time.Duration(s.FlushNS / s.Flushes)
}

// Add returns the field-wise sum of s and o: the counters of several
// Dev-LSM slices.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Puts:         s.Puts + o.Puts,
		Gets:         s.Gets + o.Gets,
		Flushes:      s.Flushes + o.Flushes,
		Compactions:  s.Compactions + o.Compactions,
		Resets:       s.Resets + o.Resets,
		Scans:        s.Scans + o.Scans,
		BytesIn:      s.BytesIn + o.BytesIn,
		BufferWaits:  s.BufferWaits + o.BufferWaits,
		BufferWaitNS: s.BufferWaitNS + o.BufferWaitNS,
		FlushNS:      s.FlushNS + o.FlushNS,
	}
}

// pageMeta describes one page-aligned slab of encoded records. firstKey
// and lpns are capacity-clipped views of the run's literal bytes and LPN
// list.
type pageMeta struct {
	firstKey []byte
	off      int // into run.data
	length   int
	lpns     []int // usually one; oversized records span several
}

// run is one immutable sorted run on the KV region: nothing writes into
// its buffers once buildRun returns. data holds the encoded records with
// each value that repeats its first bytes folded (package fold). Records
// are read where they lie (record), so the keys and values Get and the
// iterators hand out never change.
type run struct {
	pages    []pageMeta
	data     fold.Payload
	smallest []byte
	largest  []byte
	count    int
}

// record decodes the record at logical offset off of the run's data in
// place. buildRun folds only values, so the header and key are literal
// and e.Key is a view of them; e.Value is a view too when the value lies
// in one literal span, and nil when it is folded: its vlen bytes start at
// logical offset voff either way, and len(e.Value) != vlen says which.
// next is where the record after it starts.
func (ru *run) record(off int) (e memtable.Entry, voff, vlen, next int) {
	b := ru.data.Span(off)
	e, n, rest, err := decodeHeader(b)
	if voff = off + len(b) - len(rest); err != nil || n > uint64(ru.data.Len()-voff) {
		panic("devlsm: corrupt run page")
	}
	if vlen = int(n); vlen <= len(rest) {
		e.Value = rest[:vlen:vlen]
	}
	return e, voff, vlen, voff + vlen
}

// DevLSM is the in-device key-value store.
type DevLSM struct {
	cfg Config
	f   *ftl.FTL
	arm *cpu.Pool

	// lpnOff/lpnCount bound the slice of the KV region this instance
	// owns; a full-region Dev-LSM owns [0, RegionPages).
	lpnOff   int
	lpnCount int

	mem *memtable.Table // the active write buffer
	// sealed is the full buffer the background flush is writing out, nil
	// while no flush is in flight; flushed wakes the runners waiting for
	// the flush to end, and flushErr keeps a NAND program fault of a
	// background flush for the next Put or Flush to return. full says a
	// flush found the region out of pages: sealed stays, not flushing,
	// until Reset.
	sealed   *memtable.Table
	sealedAt vclock.Time
	flushed  *vclock.Cond
	flushErr error
	full     bool
	runs     []*run // oldest first; only ever appended to or replaced
	seq      uint64
	freeLPNs freelist.Stack
	entries  int64
	bytes    int64
	stats    Stats
}

// New builds a Dev-LSM over the FTL's whole KV region, running on the
// given controller core pool.
func New(f *ftl.FTL, arm *cpu.Pool, cfg Config) *DevLSM {
	return NewRegion(f, arm, cfg, 0, f.RegionPages(ftl.KVRegion))
}

// NewRegion builds a Dev-LSM over pages [offsetPages, offsetPages+pages)
// of the FTL's KV region. Several instances over disjoint slices can
// coexist on one device — the per-shard write domains of the sharded
// front-end — sharing the controller core and NAND while keeping their
// runs, memtables, and resets independent.
func NewRegion(f *ftl.FTL, arm *cpu.Pool, cfg Config, offsetPages, pages int) *DevLSM {
	if cfg.MemtableBytes <= 0 {
		panic("devlsm: Config needs MemtableBytes > 0")
	}
	if cfg.MaxRuns < 1 {
		panic("devlsm: Config needs MaxRuns >= 1")
	}
	total := f.RegionPages(ftl.KVRegion)
	if pages <= 0 {
		pages = total - offsetPages
	}
	if offsetPages < 0 || pages < 1 || offsetPages+pages > total {
		panic(fmt.Sprintf("devlsm: region slice [%d,%d) outside KV region of %d pages",
			offsetPages, offsetPages+pages, total))
	}
	return &DevLSM{cfg: cfg, f: f, arm: arm, mem: memtable.New(cfg.MemtableBytes), flushed: vclock.NewCond("devlsm.flushed"),
		lpnOff: offsetPages, lpnCount: pages, freeLPNs: freelist.New(offsetPages, offsetPages+pages)}
}

// Region returns the slice of KV-region pages this instance owns.
func (d *DevLSM) Region() (offsetPages, pages int) { return d.lpnOff, d.lpnCount }

// Stats returns a snapshot of the counters.
func (d *DevLSM) Stats() Stats {
	return d.stats
}

// Count returns the number of buffered entries (including overwrites and
// tombstones).
func (d *DevLSM) Count() int64 {
	return d.entries
}

// Bytes returns the logical bytes buffered.
func (d *DevLSM) Bytes() int64 {
	return d.bytes
}

// Empty reports whether the Dev-LSM holds no data.
func (d *DevLSM) Empty() bool { return d.Count() == 0 }

// Full reports whether a flush found the key-value region out of pages:
// until Reset the sealed buffer stays unflushed and the device takes no
// KV put but a supersede marker (see the package comment).
func (d *DevLSM) Full() bool { return d.full }

// alloc moves n free LPNs onto the end of dst, or reports
// faults.ErrCapacityExceeded and moves none if fewer are free.
func (d *DevLSM) alloc(dst []int, n int) ([]int, error) {
	if n > d.freeLPNs.Len() {
		return dst, faults.ErrCapacityExceeded
	}
	return d.freeLPNs.Take(dst, n), nil
}

// Put buffers one record (value may be nil with kind KindDelete for
// redirected tombstones). The put that fills the active buffer seals it
// and starts its background flush, first waiting for the flush in flight
// if there is one. It returns the program fault of a background flush
// that ended since the last Put or Flush, if any.
func (d *DevLSM) Put(r *vclock.Runner, kind memtable.Kind, key, value []byte) error {
	var st PutState
	for {
		if done, err := d.PutStep(r, &st, kind, key, value); done {
			return err
		}
		r.Park()
	}
}

// PutState is a stepped put's progress (see PutStep). The zero value is
// a put not yet begun, and PutStep leaves it zero when the put is over.
type PutState struct {
	stage uint8
	span  trace.Span
	start vclock.Time // when the put began to wait for the sealed buffer
}

// PutStep is Put as a stepped primitive (see vclock.Clock.GoTask): it
// takes the put as far as it goes without blocking and reports whether it
// is over, with Put's result. Until it is, r is parked, and the caller
// hands the baton on and calls again with the same st and record when r's
// turn comes.
func (d *DevLSM) PutStep(r *vclock.Runner, st *PutState, kind memtable.Kind, key, value []byte) (done bool, err error) {
	switch st.stage {
	case 0:
		st.span = d.cfg.Trace.Begin(r, trace.PhaseDevLSM, "kv-put")
		st.stage = 1
		fallthrough
	case 1:
		if !d.arm.RunStep(r, d.cfg.PutCPU) {
			return false, nil
		}
		d.seq++
		d.mem.Add(d.seq, kind, key, value)
		d.entries++
		d.bytes += int64(len(key) + len(value))
		d.stats.Puts++
		d.stats.BytesIn += int64(len(key) + len(value))
		if d.mem.ApproximateSize() < d.cfg.MemtableBytes || !d.flushing() {
			break
		}
		st.stage, st.start = 2, r.Now()
		fallthrough
	case 2:
		if !d.flushed.WaitUntilStep(r, flushIdle, d) {
			return false, nil
		}
		d.stats.BufferWaits++
		d.stats.BufferWaitNS += int64(r.Now().Sub(st.start))
	}
	// Another put may have sealed the buffer while this one waited, and
	// a full region takes no new run: the buffer then grows past its
	// budget by the puts already on their way.
	if d.mem.ApproximateSize() >= d.cfg.MemtableBytes && !d.full {
		d.seal(r)
		r.Clock().GoWith("devlsm.flush", runFlush, d)
	}
	st.span.EndArg(r, int64(len(key)+len(value)))
	*st = PutState{}
	return true, d.takeFlushErr()
}

// seal makes the active buffer the sealed one, to be flushed, and opens a
// new active buffer. No flush may be in flight.
func (d *DevLSM) seal(r *vclock.Runner) {
	d.sealed, d.mem, d.sealedAt = d.mem, memtable.New(d.cfg.MemtableBytes), r.Now()
}

// flushing reports whether a flush is in flight.
func (d *DevLSM) flushing() bool { return d.sealed != nil && !d.full }

// waitFlush parks r until no flush is in flight.
func (d *DevLSM) waitFlush(r *vclock.Runner) { d.flushed.WaitUntil(r, flushIdle, d) }

func flushIdle(d any) bool { return !d.(*DevLSM).flushing() }

// takeFlushErr returns, and forgets, a background flush's program fault.
func (d *DevLSM) takeFlushErr() error {
	err := d.flushErr
	d.flushErr = nil
	return err
}

// Get returns the newest buffered record for key, looking in the active
// buffer, then the sealed one, then the runs, newest first. Each run
// probe costs one NAND page read; there is no read cache.
func (d *DevLSM) Get(r *vclock.Runner, key []byte) (value []byte, kind memtable.Kind, found bool, err error) {
	sp := d.cfg.Trace.Begin(r, trace.PhaseDevLSM, "kv-get")
	defer sp.End(r)
	d.arm.Run(r, d.cfg.GetCPU)
	d.stats.Gets++
	// d.runs is only ever appended to or replaced, never written in
	// place, so the header taken here is a stable snapshot.
	mem, sealed, runs := d.mem, d.sealed, d.runs

	if v, k, ok := mem.Get(key); ok {
		return v, k, true, nil
	}
	if sealed != nil {
		if v, k, ok := sealed.Get(key); ok {
			return v, k, true, nil
		}
	}
	for i := len(runs) - 1; i >= 0; i-- {
		ru := runs[i]
		if bytes.Compare(key, ru.smallest) < 0 || bytes.Compare(key, ru.largest) > 0 {
			continue
		}
	scan:
		for pi := ru.pageFor(key); pi < len(ru.pages); pi++ {
			if pi > 0 && bytes.Compare(ru.pages[pi].firstKey, key) > 0 {
				break
			}
			pm := &ru.pages[pi]
			if rerr := d.f.ReadMany(r, ftl.KVRegion, pm.lpns); rerr != nil {
				return nil, 0, false, rerr
			}
			// Scan the page's records where they lie, newest first within
			// a key; only a folded value found is materialised.
			for off := pm.off; off < pm.off+pm.length; {
				e, voff, vlen, next := ru.record(off)
				if c := bytes.Compare(e.Key, key); c == 0 {
					if len(e.Value) != vlen {
						e.Value = ru.data.Read(voff, vlen)
					}
					return e.Value, e.Kind, true, nil
				} else if c > 0 {
					break scan
				}
				off = next
			}
		}
	}
	return nil, 0, false, nil
}

// pageFor returns the page where a forward scan for key must start: the
// rightmost page whose first key is strictly less than key. Versions of
// one key can straddle page boundaries, and the newest lives earliest.
func (ru *run) pageFor(key []byte) int {
	lo, hi := 0, len(ru.pages)-1
	res := 0
	for lo <= hi {
		mid := (lo + hi) / 2
		if bytes.Compare(ru.pages[mid].firstKey, key) < 0 {
			res = mid
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	return res
}

// Flush waits for the flush in flight, if any, then writes the active
// buffer out as a new sorted run on r, and returns the first NAND program
// fault either flush reported, or faults.ErrCapacityExceeded if the
// region is full.
func (d *DevLSM) Flush(r *vclock.Runner) error {
	d.waitFlush(r)
	if d.mem.Count() > 0 && !d.full {
		d.seal(r)
		d.flush(r)
	}
	if d.full {
		return faults.ErrCapacityExceeded
	}
	return d.takeFlushErr()
}

// runFlush is the body of a background flush's runner, started with
// vclock.GoWith: a flush costs no closure.
func runFlush(r *vclock.Runner, d any) { d.(*DevLSM).flush(r) }

// flush writes the sealed buffer out as a new sorted run and ends the
// flush. The run is installed even when a NAND program reports a fault —
// the controller's capacitor-backed buffer lets firmware retry the
// program out of band, so the data is never lost device-side — and the
// fault waits in flushErr so a host command (KV_PUT) completes with a
// status. A run the region has no pages for is not installed: the sealed
// buffer stays, and the Dev-LSM is full.
func (d *DevLSM) flush(r *vclock.Runner) {
	mem := d.sealed
	fsp := d.cfg.Trace.Begin(r, trace.PhaseDevLSMFlush, "devlsm-flush")
	ru, err := d.buildRun(r, mem.NewIterator(), int(mem.ApproximateSize()))
	if d.full = errors.Is(err, faults.ErrCapacityExceeded); !d.full {
		d.runs = append(d.runs, ru)
		d.stats.Flushes++
		d.stats.FlushNS += int64(r.Now().Sub(d.sealedAt))
		if d.cfg.CompactionEnabled && len(d.runs) > d.cfg.MaxRuns {
			d.compact(r)
		}
		if err != nil && d.flushErr == nil {
			d.flushErr = err
		}
		d.sealed = nil
	}
	fsp.EndArg(r, int64(mem.Count()))
	d.flushed.Broadcast()
}

// wavesInFlight bounds the program waves a run build keeps outstanding:
// eight programs queued per die. Eight waves are a 4 MiB buffer at the
// Cosmos+ geometry (32 dies, 16 KiB pages), so there the bound holds back
// only a flush's last wave or two; on a small array it bounds the fan-out
// tasks, one per page in flight, that a flush keeps.
const wavesInFlight = 8

// buildRun packs an iterator's records into page-aligned slabs, encoding
// each straight into the run's literal buffer and folding its value if it
// repeats, and returns the run (nil if the iterator is empty). Each page
// is allocated its LPNs as it closes, and the pages are programmed in
// waves of one page per die, each set going as soon as it is built, so
// the build overlaps the programs of the waves before it; buildRun
// returns once every wave is programmed. err is the first program fault;
// every page is still programmed. If the region runs out of pages,
// buildRun waits for the waves it set going, gives back every page it
// took and returns faults.ErrCapacityExceeded and no run. sizeHint is the
// caller's upper estimate of the run's bytes; the literal buffer, and the
// page and LPN lists at its page count, are allocated with the first
// record (if its value folds, for what records like it keep, and the
// fold list for two pieces a record).
func (d *DevLSM) buildRun(r *vclock.Runner, it iterkit.Iterator, sizeHint int) (ru *run, err error) {
	pageSize, wave := d.f.PageSize(), d.f.Dies()
	ru = &run{}
	var all []int
	var lit []byte // ru.data's literal bytes, folded as each record is encoded
	// The last waves set going, the oldest at waves[started%len(waves)]: a
	// wave is set going once the one len(waves) back is programmed.
	var waves [wavesInFlight]ftl.Programs
	started := 0
	programmed := 0 // all[:programmed] are in waves set going
	pageOff := 0    // where the open page starts in ru.data
	lastLit := 0    // where the last record starts in lit

	var full error
	closePage := func() {
		length := ru.data.Logical(len(lit)) - pageOff
		if length == 0 {
			return
		}
		if all, full = d.alloc(all, (length+pageSize-1)/pageSize); full != nil {
			return
		}
		ru.pages = append(ru.pages, pageMeta{off: pageOff, length: length})
		pageOff += length
	}
	finish := func(w ftl.Programs) {
		if werr := d.f.Finish(r, w); werr != nil && err == nil {
			err = werr
		}
	}
	program := func() {
		w := &waves[started%len(waves)]
		finish(*w)
		*w = d.f.StartWrite(r, ftl.KVRegion, all[programmed:])
		started, programmed = started+1, len(all)
	}

	cpuPending := 0
	for it.SeekToFirst(); it.Valid() && full == nil; it.Next() {
		e := it.Entry()
		recLen := encoding.RecordSize(len(e.Key), len(e.Value)) + 9
		if open := ru.data.Logical(len(lit)) - pageOff; open > 0 && open+recLen > pageSize {
			if closePage(); full != nil {
				break
			}
			if len(all)-programmed >= wave {
				program()
			}
		}
		if lit == nil {
			size := max(sizeHint, recLen)
			if keep := ru.data.Presize(sizeHint, recLen, e.Value); keep > 0 {
				size = keep + recLen
			}
			lit = make([]byte, 0, size)
			all = make([]int, 0, sizeHint/pageSize+1)
			ru.pages = make([]pageMeta, 0, sizeHint/pageSize+1)
		}
		lastLit = len(lit)
		lit = appendRecord(lit, e)
		lit = ru.data.Fold(lit, len(lit)-len(e.Value), len(lit))
		ru.count++
		cpuPending += recLen
		if cpuPending >= 64<<10 {
			d.chargeScanCPU(r, cpuPending)
			cpuPending = 0
		}
	}
	d.chargeScanCPU(r, cpuPending)
	if full == nil {
		closePage()
	}
	if full == nil {
		program()
	}
	for i := range waves {
		finish(waves[(started+i)%len(waves)])
	}
	if full != nil {
		for _, lpn := range all {
			d.f.Trim(ftl.KVRegion, lpn)
		}
		d.freeLPNs.Push(all...)
		return nil, full
	}
	if ru.count == 0 {
		return nil, nil
	}
	// The views go in last: lit and all may have moved as they grew. A
	// record's header and key are literal: only values fold.
	ru.data = ru.data.Seal(lit)
	next := 0
	for i := range ru.pages {
		pm := &ru.pages[i]
		pm.firstKey = recordKey(ru.data.Span(pm.off))
		n := (pm.length + pageSize - 1) / pageSize
		pm.lpns = all[next : next+n : next+n]
		next += n
	}
	ru.smallest = ru.pages[0].firstKey
	ru.largest = recordKey(lit[lastLit:])
	return ru, err
}

// recordKey returns a clipped view of the key of the record b starts
// with; b need hold only the record's header and key.
func recordKey(b []byte) []byte {
	e, _, _, err := decodeHeader(b)
	if err != nil {
		panic("devlsm: corrupt run page")
	}
	return e.Key
}

func (d *DevLSM) chargeScanCPU(r *vclock.Runner, n int) {
	if n <= 0 {
		return
	}
	d.arm.Run(r, d.cfg.ScanCPUPerKB*time.Duration(n)/1024)
}

func appendRecord(dst []byte, e memtable.Entry) []byte {
	dst = encoding.PutUvarint(dst, uint64(len(e.Key)))
	dst = encoding.PutUvarint(dst, uint64(len(e.Value)))
	dst = append(dst, byte(e.Kind))
	dst = encoding.PutU64(dst, e.Seq)
	dst = append(dst, e.Key...)
	dst = append(dst, e.Value...)
	return dst
}

// decodeHeader decodes the header and key of the record b starts with;
// b need hold no more. e has the record's kind, sequence number and key,
// a clipped view (appending to it cannot overwrite what follows), but no
// value: the value's vlen bytes start at rest, b past the key.
func decodeHeader(b []byte) (e memtable.Entry, vlen uint64, rest []byte, err error) {
	klen, b, err := encoding.Uvarint(b)
	if err == nil {
		vlen, b, err = encoding.Uvarint(b)
	}
	if err == nil && (len(b) < 9 || klen > uint64(len(b)-9)) {
		err = encoding.ErrCorrupt
	}
	if err != nil {
		return e, 0, nil, err
	}
	e.Kind = memtable.Kind(b[0])
	e.Seq, _, _ = encoding.U64(b[1:9])
	e.Key = b[9 : 9+klen : 9+klen]
	return e, vlen, b[9+klen:], nil
}

// compact merges every run into one, deduplicating versions. The single
// controller core pays the merge cost; the KV region pays read+write.
func (d *DevLSM) compact(r *vclock.Runner) {
	runs := append([]*run(nil), d.runs...)
	if len(runs) <= 1 {
		return
	}
	// Bulk-read every page of every input run.
	var lpns []int
	inputBytes := 0
	for _, ru := range runs {
		for _, pm := range ru.pages {
			lpns = append(lpns, pm.lpns...)
		}
		inputBytes += ru.data.Len()
	}
	_ = d.f.ReadMany(r, ftl.KVRegion, lpns) // firmware-internal: faults retried out of band

	children := make([]iterkit.Iterator, 0, len(runs))
	for i := len(runs) - 1; i >= 0; i-- { // newest run first for tie-break
		children = append(children, newRunIter(d, r, runs[i], false))
	}
	// Through an Iterator, buildRun gets each folded value it copies
	// materialised, and folds it again.
	merged := &Iterator{merged: &dedupIter{in: iterkit.NewMerge(children)}}
	ru, err := d.buildRun(r, merged, inputBytes) // firmware-internal: program faults retried out of band
	if errors.Is(err, faults.ErrCapacityExceeded) {
		return // no room for the merged run beside its inputs: keep the inputs
	}

	// Free old pages.
	for _, ru := range runs {
		for _, pm := range ru.pages {
			for _, lpn := range pm.lpns {
				d.f.Trim(ftl.KVRegion, lpn)
			}
			d.freeLPNs.Push(pm.lpns...)
		}
	}
	if ru != nil {
		d.runs = []*run{ru}
	} else {
		d.runs = nil
	}
	d.stats.Compactions++
}

// dedupIter keeps only the newest version of each user key.
type dedupIter struct {
	in   *iterkit.Merge
	prev []byte
}

// folded says where the current record's value lies when a run folded
// it: Entry's Value is then nil, and the value is n bytes of *p from
// logical offset off. p is nil when Entry holds the value.
func (d *dedupIter) folded() (p *fold.Payload, off, n int) {
	if ri, ok := d.in.Top().(*runIter); ok && len(ri.cur.Value) != ri.vlen {
		return &ri.ru.data, ri.voff, ri.vlen
	}
	return nil, 0, 0
}

func (d *dedupIter) SeekToFirst()          { d.in.SeekToFirst(); d.prev = nil }
func (d *dedupIter) Seek(k []byte)         { d.in.Seek(k); d.prev = nil }
func (d *dedupIter) Valid() bool           { return d.in.Valid() }
func (d *dedupIter) Entry() memtable.Entry { return d.in.Entry() }
func (d *dedupIter) Next() {
	d.prev = append(d.prev[:0], d.in.Entry().Key...)
	for {
		d.in.Next()
		if !d.in.Valid() || !bytes.Equal(d.in.Entry().Key, d.prev) {
			return
		}
	}
}

// Reset wipes the Dev-LSM after a completed rollback (§V-E step 8): the
// write buffers, every run, and this instance's slice of the KV region
// mapping (other slices of the same device are untouched). It first waits
// on r for the flush in flight, so no run of the wiped data is installed
// after the wipe.
func (d *DevLSM) Reset(r *vclock.Runner) {
	d.waitFlush(r)
	d.sealed, d.full = nil, false
	d.mem = memtable.New(d.cfg.MemtableBytes)
	d.runs = nil
	d.entries = 0
	d.bytes = 0
	d.stats.Resets++
	d.freeLPNs.Reset(d.lpnOff, d.lpnOff+d.lpnCount)
	if d.lpnOff == 0 && d.lpnCount == d.f.RegionPages(ftl.KVRegion) {
		d.f.TrimRegion(ftl.KVRegion)
		return
	}
	for lpn := d.lpnOff; lpn < d.lpnOff+d.lpnCount; lpn++ {
		d.f.Trim(ftl.KVRegion, lpn)
	}
}
