package ssd

import (
	"fmt"

	"kvaccel/internal/nvme"
	"kvaccel/internal/offload"
	"kvaccel/internal/vclock"
)

// MergeOffloader is the host-side handle for compaction offload over one
// block namespace: it carries OFFLOAD_MERGE / OFFLOAD_ABORT commands on a
// dedicated queue pair (so a long-running merge never occupies a block
// I/O slot in the namespace's stripe) and translates the request's
// namespace-relative LPNs into region LPNs for the device executor.
//
// Only the command descriptor and the completion metadata cross PCIe: the
// input tables are read off NAND by the executor and the outputs are
// programmed straight back — near-data. The host pays the link again only
// when it reads the outputs back for validation, which fs.AdoptFile
// deliberately leaves uncached to keep that cost honest.
type MergeOffloader struct {
	ns *BlockNS
	qp *nvme.QueuePair
}

// Offloader returns the namespace's compaction-offload handle. Call once
// at setup: each call registers a fresh queue pair.
func (ns *BlockNS) Offloader() *MergeOffloader {
	return &MergeOffloader{
		ns: ns,
		qp: ns.dev.NVMe.NewQueuePair(fmt.Sprintf("offload@%d", ns.offset), 1),
	}
}

// Busy reports whether the device is currently executing a merge — the
// host scheduler's device-idleness gate.
func (o *MergeOffloader) Busy() bool { return o.ns.dev.MergeExec.Busy() }

// SubmitMerge issues one OFFLOAD_MERGE command and awaits its completion.
// The command body DMAs the extent descriptors down, runs the device-side
// merge (NAND reads, ARM merge cycles, NAND programs), and returns the
// per-output metadata in the completion. Output page lists come back
// namespace-relative, ready for fs.AdoptFile. Any device fault, power
// cut, or abort surfaces as an error; the caller falls back to a host
// compaction.
func (o *MergeOffloader) SubmitMerge(r *vclock.Runner, req *offload.MergeRequest) (*offload.MergeResult, error) {
	// Device-side copy of the request with region-absolute LPNs; the
	// caller's request is left untouched.
	devReq := *req
	devReq.Inputs = make([]offload.InputTable, len(req.Inputs))
	for i, in := range req.Inputs {
		o.ns.check(in.Extents)
		devReq.Inputs[i] = in
		devReq.Inputs[i].Extents = o.ns.translate(nil, in.Extents)
	}
	o.ns.check(req.OutputPages)
	devReq.OutputPages = o.ns.translate(nil, req.OutputPages)
	if devReq.PageSize <= 0 {
		devReq.PageSize = o.ns.PageSize()
	}

	c := o.ns.cmd(blkMerge)
	c.Bytes = req.DescriptorBytes()
	c.req = &devReq
	err := o.qp.Do(r, &c.Command)
	res := c.res
	o.ns.release(c)
	if err != nil {
		return nil, err
	}
	if res == nil {
		return nil, offload.ErrAborted
	}
	// Map the programmed pages back into the namespace for fs adoption.
	for i := range res.Outputs {
		for j := range res.Outputs[i].Pages {
			res.Outputs[i].Pages[j] -= o.ns.offset
		}
	}
	return res, nil
}

// Abort issues OFFLOAD_ABORT: the in-flight merge (if any) stops at its
// next output boundary and its OFFLOAD_MERGE completes with
// offload.ErrAborted. The abort command rides the same queue pair but a
// separate firmware slot, so it is serviced while the merge runs.
func (o *MergeOffloader) Abort(r *vclock.Runner) error {
	c := o.ns.cmd(blkAbort)
	c.Bytes = 16
	err := o.qp.Do(r, &c.Command)
	o.ns.release(c)
	return err
}
