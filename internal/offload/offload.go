// Package offload defines the host↔device protocol for near-data
// compaction: the merge-request/result types carried by the OFFLOAD_MERGE
// NVMe command, and the shared merge-emit core both the host compaction
// path and the device-side executor run. Sharing the core is what makes
// an offloaded merge byte-identical to the host merge it replaces — the
// property the equivalence tests pin down and the reason the host can
// install device-built tables through a normal manifest edit.
//
// Offload is strictly a hint: the host validates every returned table
// (block checksums, key-range and ordering invariants) before install and
// falls back to a host merge on any device fault or abort, so no
// durability guarantee ever depends on the device finishing a merge.
package offload

import (
	"errors"
	"fmt"
	"time"

	"kvaccel/internal/sstable"
	"kvaccel/internal/vclock"
)

// ErrAborted is returned when the device abandons a merge (for example
// when the host-reserved output range runs out of pages). The host falls
// back to a host-side compaction.
var ErrAborted = errors.New("offload: device merge aborted")

// InputTable describes one compaction input resident on the block
// namespace: its page extents (what the device reads from NAND) and the
// authoritative file bytes. In this simulator the host file system holds
// the real payload while the device layers model only time, so the bytes
// ride along in the request; the device charges NAND read time for the
// extents and never pays a PCIe transfer for them — that is the
// "near-data" half of the protocol.
type InputTable struct {
	Num     uint64 // host table number (debugging, cache identity)
	Name    string
	Extents []int // namespace-relative LPNs holding the file
	Data    []byte
}

// MergeRequest is the submit-merge command payload: input SST extents,
// the output namespace range the host reserved, and the merge parameters
// the device must apply to produce host-installable tables.
type MergeRequest struct {
	// Inputs are ordered exactly as the host compaction would open them:
	// every level-0 file oldest-first, then the target-level overlap in
	// key order. The merge heap breaks ties toward lower indices, so this
	// ordering is part of the byte-identity contract.
	Inputs []InputTable

	Builder        sstable.BuilderOptions
	MaxFileSize    int64
	DropTombstones bool

	// OutputPages is the reserved namespace-relative page range the device
	// programs finished tables into. The device aborts (ErrAborted) if the
	// outputs outgrow it; the host sizes it from the input volume, which
	// the merge can only shrink.
	OutputPages []int
	PageSize    int
}

// InputBytes sums the input table sizes.
func (req *MergeRequest) InputBytes() int64 {
	var n int64
	for _, in := range req.Inputs {
		n += int64(len(in.Data))
	}
	return n
}

// DescriptorBytes is the size of the command payload that actually
// crosses PCIe: a header plus one 16-byte descriptor per contiguous
// extent run per input and per output-range run. The table bytes
// themselves never cross the link — they are already on media.
func (req *MergeRequest) DescriptorBytes() int {
	const header, desc = 64, 16
	n := header
	for _, in := range req.Inputs {
		n += desc * extentRuns(in.Extents)
	}
	n += desc * extentRuns(req.OutputPages)
	return n
}

// extentRuns counts contiguous LPN runs, the unit of one descriptor.
func extentRuns(lpns []int) int {
	if len(lpns) == 0 {
		return 0
	}
	runs := 1
	for i := 1; i < len(lpns); i++ {
		if lpns[i] != lpns[i-1]+1 {
			runs++
		}
	}
	return runs
}

// OutputTable is one finished table: its encoded bytes, builder metadata,
// and the reserved pages it was programmed into.
type OutputTable struct {
	Data  []byte
	Meta  sstable.Meta
	Pages []int
}

// MergeResult is the completion payload: the device-built tables and the
// ARM cycles the merge cost (host stats attribute them as
// DeviceMergeCPUMicros, not host WriteCPU).
type MergeResult struct {
	Outputs   []OutputTable
	DeviceCPU time.Duration
}

// OutputBytes sums the produced table sizes.
func (res *MergeResult) OutputBytes() int64 {
	var n int64
	for _, out := range res.Outputs {
		n += int64(len(out.Data))
	}
	return n
}

// ByteSource adapts an in-memory table image to sstable.Source with no
// modeled read time. The device executor uses it over bytes whose NAND
// time it charges separately; host tests use it for fixtures.
type ByteSource []byte

// ReadAt returns the requested slice, capacity clipped, without spending
// device time.
func (s ByteSource) ReadAt(r *vclock.Runner, off, length int) ([]byte, error) {
	if off < 0 || length < 0 || off+length > len(s) {
		return nil, fmt.Errorf("offload: read [%d,%d) out of bounds (size %d)", off, off+length, len(s))
	}
	return s[off : off+length : off+length], nil
}

// Size returns the image length.
func (s ByteSource) Size() int { return len(s) }
