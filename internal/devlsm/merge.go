package devlsm

import (
	"time"

	"kvaccel/internal/cpu"
	"kvaccel/internal/ftl"
	"kvaccel/internal/iterkit"
	"kvaccel/internal/offload"
	"kvaccel/internal/sstable"
	"kvaccel/internal/trace"
	"kvaccel/internal/vclock"
)

// MergeExecutor runs offloaded Main-LSM compactions near-data: it reads
// the input SSTs' pages from the block region of the NAND array, streams
// them through the device merge engine (the fabric compare-select
// pipeline — see devlsm.Config.MergeCPUPerKB — charged to the device
// compute pool, not host WriteCPU), and programs the finished tables
// into the output page range the host reserved. It is the device half of
// the compaction-offload protocol in internal/offload; the Dev-LSM
// proper is untouched — the executor only shares the compute pool and
// the FTL.
type MergeExecutor struct {
	f             *ftl.FTL
	arm           *cpu.Pool
	mergeCPUPerKB time.Duration
	tr            *trace.Tracer
	busy          int
}

// NewMergeExecutor builds an executor over the device's FTL and ARM
// pool. mergeCPUPerKB is the controller's k-way-merge cost; tr may be
// nil.
func NewMergeExecutor(f *ftl.FTL, arm *cpu.Pool, mergeCPUPerKB time.Duration, tr *trace.Tracer) *MergeExecutor {
	return &MergeExecutor{f: f, arm: arm, mergeCPUPerKB: mergeCPUPerKB, tr: tr}
}

// Busy reports whether a merge is currently executing. The host offload
// scheduler consults it as its device-idleness gate.
func (x *MergeExecutor) Busy() bool { return x.busy > 0 }

// Run executes one offloaded merge on the calling (device-side) runner:
// NAND reads for every input extent, ARM merge cycles, NAND programs for
// the outputs. The table bytes come from the request — in this simulator
// the host fs holds the authoritative payload while the device models
// time — so no PCIe transfer is charged anywhere here; that is the
// near-data property. Returns offload.ErrAborted when the reserved
// output range runs out of pages.
func (x *MergeExecutor) Run(r *vclock.Runner, req *offload.MergeRequest) (*offload.MergeResult, error) {
	x.busy++
	defer func() { x.busy-- }()
	sp := x.tr.Begin(r, trace.PhaseDeviceMerge, "device-merge")
	var resBytes int64
	defer func() { sp.EndArg(r, resBytes) }()

	// Read every input page off the array with die-parallel fanout — the
	// whole point of near-data: this traffic never crosses the link. The
	// merge's media ops run at background priority: the controller admits
	// them only into die slots no foreground command is waiting on, so
	// flushes and WAL appends never queue behind a merge burst. A host
	// merge cannot do this — through the block interface its page
	// programs are indistinguishable from the flush's, so they collide on
	// the dies and stretch exactly the flush latency the writers are
	// stalled on. Near-data scheduling, not just near-data movement.
	var inLPNs []int
	for _, in := range req.Inputs {
		inLPNs = append(inLPNs, in.Extents...)
	}
	if err := x.f.ReadManyBackground(r, ftl.BlockRegion, inLPNs); err != nil {
		return nil, err
	}

	// Open the inputs in the host's exact order (byte-identity contract).
	iters := make([]iterkit.Iterator, 0, len(req.Inputs))
	for _, in := range req.Inputs {
		rd, err := sstable.Open(r, offload.ByteSource(in.Data), in.Num, nil)
		if err != nil {
			return nil, err // unreadable input: host falls back and re-reads
		}
		iters = append(iters, rd.NewIterator(r))
	}

	res := &offload.MergeResult{}
	ps := req.PageSize
	if ps <= 0 {
		ps = x.f.PageSize()
	}
	next := 0 // cursor into req.OutputPages
	err := offload.Merge(iterkit.NewMerge(iters), offload.MergeParams{
		Builder:        req.Builder,
		MaxFileSize:    req.MaxFileSize,
		DropTombstones: req.DropTombstones,
		Charge: func(n int) {
			d := x.mergeCPUPerKB * time.Duration(n) / 1024
			if d <= 0 {
				return
			}
			x.arm.Run(r, d)
			res.DeviceCPU += d
		},
		Emit: func(data []byte, meta sstable.Meta) error {
			need := (len(data) + ps - 1) / ps
			if next+need > len(req.OutputPages) {
				return offload.ErrAborted // reserved range exhausted
			}
			pages := req.OutputPages[next : next+need]
			next += need
			if werr := x.f.WriteManyBackground(r, ftl.BlockRegion, pages); werr != nil {
				return werr
			}
			res.Outputs = append(res.Outputs, offload.OutputTable{
				Data:  data,
				Meta:  meta,
				Pages: append([]int(nil), pages...),
			})
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	resBytes = res.OutputBytes()
	return res, nil
}
