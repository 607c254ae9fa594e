package server

import (
	"time"

	"kvaccel/internal/vclock"
)

// add books p's server-side phases, its reply starting at sendStart.
func (a *PhaseTotals) add(p *pending, sendStart vclock.Time) {
	a.AcceptNS += int64(nsBetween(p.arrived, p.decoded))
	a.LingerNS += int64(nsBetween(p.enq, p.claimed))
	a.EngineNS += int64(nsBetween(p.claimed, p.engDone))
	a.ReplyNS += int64(nsBetween(p.engDone, sendStart))
	a.Count++
}

// TenantStats is one tenant's externally visible accounting.
type TenantStats struct {
	Admitted int64 // requests past the admission gate (all, with no AdmitRate)
	Answered int64 // responses with an engine-backed status
	Shed     int64 // RETRY_LATER responses (both gates)
}

// PhaseTotals is the per-phase server-side residency decomposition.
type PhaseTotals struct {
	Count                                 int64
	AcceptNS, LingerNS, EngineNS, ReplyNS int64
}

// Stats is a snapshot of the serving tier's counters.
type Stats struct {
	Accepted       int64
	ConnRefused    int64
	Requests       int64
	Shed           int64
	Replies        int64
	DroppedReplies int64
	TornFrames     int64
	BadRequests    int64
	EngineErrors   int64

	Batches    int64
	BatchedOps int64
	ReadChunks int64
	ReadOps    int64
	DirectOps  int64

	// FrontCPUBusy is cumulative busy time on the serving tier's own
	// worker cores (decode + engine-dispatch charges).
	FrontCPUBusy time.Duration

	Phases  PhaseTotals
	Tenants []TenantStats
}

// MeanBatchOps returns the mean committed write-batch size.
func (s Stats) MeanBatchOps() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.BatchedOps) / float64(s.Batches)
}

// MeanReadChunk returns the mean multi-get chunk size.
func (s Stats) MeanReadChunk() float64 {
	if s.ReadChunks == 0 {
		return 0
	}
	return float64(s.ReadOps) / float64(s.ReadChunks)
}
