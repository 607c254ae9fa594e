package lsm

import (
	"bytes"
	"fmt"
	"time"

	"kvaccel/internal/offload"
	"kvaccel/internal/sstable"
	"kvaccel/internal/trace"
	"kvaccel/internal/vclock"
)

// Offloader is the device handle the engine hands L0→L1 merges to — the
// host side of the compaction-offload protocol (internal/offload). The
// SSD layer implements it over an OFFLOAD_MERGE NVMe command; tests
// substitute in-process fakes. Offload is strictly a hint: any error from
// SubmitMerge, and any output that fails host validation, sends the
// compaction down the ordinary host merge path.
type Offloader interface {
	// SubmitMerge executes one device-side merge and returns the built
	// tables. The request's LPNs are namespace-relative (fs extents).
	SubmitMerge(r *vclock.Runner, req *offload.MergeRequest) (*offload.MergeResult, error)
	// Busy reports whether the device executor is already merging — the
	// scheduler's device-idleness gate.
	Busy() bool
}

// shouldOffload is the offload gate: only L0→L1 merges (the compaction
// the write-stall state machine serializes behind), only when the merge
// needs no host-side policy (no value log, whose discard accounting the
// device cannot do), and only when offload would plausibly help — writers
// stalling or about to, and the device executor idle. ForceOffload skips
// the pressure/idleness part for deterministic tests and A/B sweeps.
func (db *DB) shouldOffload(c *compaction) bool {
	if db.opt.Offloader == nil || !db.opt.EnableCompactionOffload || c.level != 0 || db.vlog != nil {
		return false
	}
	if db.opt.ForceOffload {
		return true
	}
	if db.opt.Offloader.Busy() {
		return false
	}
	// Hysteresis: a stall-heavy system stalls in bursts, and the instant a
	// compaction is picked is usually between bursts. Recent pressure —
	// a writer stalled within the window — keeps the gate open across the
	// whole episode instead of sampling one moment of it.
	pressure := db.stalledWriters > 0 || db.slowdownCondition() ||
		(db.lastPressure != 0 && db.clk.Now().Sub(db.lastPressure) <= offloadPressureWindow)
	return pressure
}

// offloadPressureWindow is the hysteresis horizon for the offload gate:
// how long after the last writer stall the system still counts as under
// pressure. One second of virtual time spans several flush cycles in
// every stall-heavy regime the A/B runs.
const offloadPressureWindow = time.Second

// tryOffloadCompaction runs c on the device: gather input extents,
// reserve an output range, submit the merge, then validate and install
// the returned tables. It returns ok=false on any failure — device
// fault, abort, or a validation miss — with every reservation released
// and every partial output removed, so the caller can fall back to the
// host merge with the inputs still marked compacting. Nothing durable
// changes until the manifest install inside installCompaction: a crash
// at any point before it recovers to the pre-compaction tree.
func (db *DB) tryOffloadCompaction(r *vclock.Runner, c *compaction) (readBytes, writeBytes int64, ok bool) {
	ssp := db.opt.Trace.Begin(r, trace.PhaseOffloadSubmit, "offload-submit")
	req := &offload.MergeRequest{
		Builder:        db.opt.builderOptions(),
		MaxFileSize:    db.opt.MaxFileSize,
		DropTombstones: c.dropTombstones,
		PageSize:       db.fsys.PageSize(),
	}
	for _, f := range c.allFiles() {
		ext, err := db.fsys.Extents(f.Name())
		if err != nil {
			ssp.End(r)
			return 0, 0, false
		}
		data, err := db.fsys.MediaRead(f.Name())
		if err != nil {
			ssp.End(r)
			return 0, 0, false
		}
		req.Inputs = append(req.Inputs, offload.InputTable{
			Num: f.Num, Name: f.Name(), Extents: ext, Data: data,
		})
		readBytes += f.Size
	}
	// Reserve the worst case — a merge only shrinks data — plus one page
	// of rounding slack per possible output file.
	ps := int64(req.PageSize)
	maxFiles := req.InputBytes()/db.opt.MaxFileSize + 2
	need := (req.InputBytes()+ps-1)/ps + maxFiles
	pages, err := db.fsys.ReservePages(int(need))
	if err != nil {
		ssp.End(r)
		return 0, 0, false
	}
	req.OutputPages = pages

	res, err := db.opt.Offloader.SubmitMerge(r, req)
	ssp.EndArg(r, int64(req.DescriptorBytes()))
	if err != nil {
		db.fsys.ReleasePages(pages)
		return 0, 0, false
	}
	if hook := db.opt.TestHookOffload; hook != nil {
		hook("merge-complete")
	}

	// Adopt and validate every returned table before anything is
	// installed. The footer/index parse (and the optional full checksum
	// read-back) runs through the uncached file source, so the host
	// honestly pays the PCIe cost of examining device-built bytes.
	isp := db.opt.Trace.Begin(r, trace.PhaseOffloadInstall, "offload-install")
	smallest, largest := keyRange(c.allFiles())
	used := 0
	var outputs []*FileMeta
	fail := func() (int64, int64, bool) {
		for _, f := range outputs {
			db.deleteFile(r, f)
		}
		db.fsys.ReleasePages(pages[used:])
		isp.End(r)
		return 0, 0, false
	}
	var prevLargest []byte
	for _, out := range res.Outputs {
		if verr := validateOutput(out, prevLargest, smallest, largest); verr != nil {
			return fail()
		}
		prevLargest = out.Meta.Largest
		num := db.nextFileNum
		db.nextFileNum++
		name := SSTName(num)
		if aerr := db.fsys.AdoptFile(name, out.Pages, out.Data); aerr != nil {
			return fail()
		}
		used += len(out.Pages)
		// Validation reads of the device-built table are background
		// traffic; the source then flips to foreground, because the same
		// reader goes on to serve user Gets once the table is installed.
		src := &fileSource{db: db, name: name, size: len(out.Data), bg: true}
		rd, oerr := sstable.Open(r, src, num, db.cache)
		if oerr == nil && db.opt.OffloadVerifyReadback {
			oerr = rd.VerifyChecksum(r)
		}
		src.bg = false
		if oerr != nil {
			_ = db.fsys.Remove(r, name)
			db.cache.EvictFile(num)
			return fail()
		}
		outputs = append(outputs, &FileMeta{
			Num:      num,
			Level:    c.target,
			Smallest: out.Meta.Smallest,
			Largest:  out.Meta.Largest,
			Size:     int64(out.Meta.Size),
			Entries:  out.Meta.Entries,
			reader:   rd,
		})
		writeBytes += int64(out.Meta.Size)
	}
	db.fsys.ReleasePages(pages[used:])
	if hook := db.opt.TestHookOffload; hook != nil {
		hook("pre-install")
	}
	isp.EndArg(r, writeBytes)

	db.installCompaction(r, c, outputs, readBytes, writeBytes, nil, res)
	return readBytes, writeBytes, true
}

// validateOutput checks one device-built table's invariants before it is
// adopted: non-empty, internally consistent key range, strictly after
// the previous output, and inside the inputs' overall range. Block
// checksums are verified separately after adoption (VerifyChecksum).
func validateOutput(out offload.OutputTable, prevLargest, smallest, largest []byte) error {
	if len(out.Data) == 0 || out.Meta.Entries == 0 {
		return fmt.Errorf("lsm: offload output empty")
	}
	if bytes.Compare(out.Meta.Smallest, out.Meta.Largest) > 0 {
		return fmt.Errorf("lsm: offload output key range inverted")
	}
	if prevLargest != nil && bytes.Compare(out.Meta.Smallest, prevLargest) <= 0 {
		return fmt.Errorf("lsm: offload outputs overlap")
	}
	if bytes.Compare(out.Meta.Smallest, smallest) < 0 || bytes.Compare(out.Meta.Largest, largest) > 0 {
		return fmt.Errorf("lsm: offload output outside input key range")
	}
	return nil
}
