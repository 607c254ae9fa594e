package lsm

import "time"

// StallReason classifies a write stall, matching the paper's taxonomy
// (§II-A): flush backlog, L0 file count, pending compaction bytes.
type StallReason int

const (
	// StallMemtable is a flush-based stall: every memtable is full and
	// the flusher has not caught up.
	StallMemtable StallReason = iota
	// StallL0 is an L0→L1 compaction-based stall: too many L0 files.
	StallL0
	// StallPending is a pending-compaction-bytes stall.
	StallPending
	numStallReasons
)

func (s StallReason) String() string {
	switch s {
	case StallMemtable:
		return "memtable"
	case StallL0:
		return "l0"
	case StallPending:
		return "pending-bytes"
	}
	return "unknown"
}

// numLevelBuckets sizes the per-level read-attribution histogram;
// deeper levels fold into the last bucket (the tree rarely exceeds 7
// levels anyway).
const numLevelBuckets = 8

// Stats is a snapshot of a DB's cumulative counters.
type Stats struct {
	Puts    int64
	Gets    int64
	Deletes int64

	// Read-pipeline attribution (read.go): which layer of the lookup
	// chain served each Get. Exactly one of these increments per Get, so
	// Gets == ReadsMemtable + ReadsImmutable + ΣReadsLevel + ReadMisses.
	// ReadsLevel[0] is L0; deeper levels fold into the last bucket.
	ReadsMemtable  int64
	ReadsImmutable int64
	ReadsLevel     [numLevelBuckets]int64
	ReadMisses     int64

	// Bloom-filter accounting across every SST probed by the read
	// pipeline: consults, definite-negative answers (saved block reads),
	// and false positives (blocks read for an absent key).
	BloomConsults       int64
	BloomNegatives      int64
	BloomFalsePositives int64

	// VLogDerefs counts read-triggered value-pointer dereferences (point
	// gets and iterator values).
	VLogDerefs int64

	// BlockCacheEvictions always reads 0, as does BlockCacheHitRate: the
	// SST reader has no block cache any more. They stay only because the
	// benchmark's per-layer table still reads them (bench/layers.go:196).
	BlockCacheEvictions int64
	// VLogReadCacheHits and VLogReadCacheMisses always read 0: the value
	// log has no read cache any more. They stay only because the
	// benchmark's per-layer table still reads them (bench/layers.go:191).
	VLogReadCacheHits   int64
	VLogReadCacheMisses int64

	// Slowdowns counts writes that were throttled by the slowdown
	// mechanism; StallEvents counts writes that hit a hard stop, by
	// reason; StallTime is total writer time spent blocked in stalls.
	Slowdowns   int64
	StallEvents [numStallReasons]int64
	StallTime   time.Duration

	// GroupCommits counts committed write groups and GroupedRecords the
	// records they carried (mean group size = GroupedRecords /
	// GroupCommits). WALAppends counts write-path WAL Append calls —
	// one per group — so
	// WALAppends / (Puts+Deletes) is the appends-per-record amortization
	// the pipeline exists to shrink.
	//
	// WouldStalls counts NoStallWait writes that failed fast with
	// ErrWouldStall instead of parking — exactly one increment per
	// failed write, never per group: a stalling leader that ejects N
	// queued NoStallWait followers accounts N (one each), and adds one
	// more only if the leader itself was non-blocking and failed too.
	// WALErrors counts write-path WAL append failures; each releases its
	// group's claimed sequence range, so the sequence stays gap-free.
	GroupCommits   int64
	GroupedRecords int64
	WALAppends     int64
	WouldStalls    int64
	WALErrors      int64

	// PipelinedAppends always reads 0: one group's append never overlaps
	// the next's any more. It stays only because the benchmark's
	// per-layer table still reads it (bench/layers.go:176).
	PipelinedAppends int64
	// GroupLingerMicros always reads 0: a group leader no longer waits
	// for followers. It stays only because the benchmark's per-layer
	// table still reads it (bench/layers.go:175).
	GroupLingerMicros int64

	Flushes              int64
	FlushBytes           int64
	Compactions          int64
	CompactionReadBytes  int64
	CompactionWriteBytes int64
	WALBytesWritten      int64 // written back so far, live logs included

	// UserBytes is the pre-separation key+value payload committed by user
	// writes — write-amp's denominator. With value separation a 4 KiB
	// value contributes 4 KiB here but only a 13-byte pointer to
	// FlushBytes, which is why the old FlushBytes denominator can no
	// longer stand in for user volume.
	UserBytes int64

	// Value-log counters. VLogBytes is device bytes the vlog wrote
	// (segment write-back); VLogSegments is the segment count;
	// VLogDiscardBytes is the value-log bytes flush or compaction left
	// dead by dropping superseded pointers, which nothing reclaims: a
	// workload that grows it is one that would need value-log GC.
	VLogBytes        int64
	VLogSegments     int64
	VLogDiscardBytes int64
	// VLogGCRewrites always reads 0: the value log has no garbage
	// collector any more. It stays only because the benchmark's per-layer
	// table still reads it (bench/layers.go:187).
	VLogGCRewrites int64
}

// MeanGroupSize is the average number of records per committed write
// group (1 when no groups formed).
func (s Stats) MeanGroupSize() float64 {
	if s.GroupCommits == 0 {
		return 1
	}
	return float64(s.GroupedRecords) / float64(s.GroupCommits)
}

// WALAppendsPerRecord is write-path WAL Append calls per committed
// record: below 1 once groups amortize appends.
func (s Stats) WALAppendsPerRecord() float64 {
	recs := s.Puts + s.Deletes
	if recs == 0 {
		return 0
	}
	return float64(s.WALAppends) / float64(recs)
}

// ReadsSST sums the per-level SST read attribution.
func (s Stats) ReadsSST() int64 {
	var n int64
	for _, v := range s.ReadsLevel {
		n += v
	}
	return n
}

// ReadsAttributed is the total reads the pipeline accounted for; it
// equals Gets exactly (the attribution invariant tests pin).
func (s Stats) ReadsAttributed() int64 {
	return s.ReadsMemtable + s.ReadsImmutable + s.ReadsSST() + s.ReadMisses
}

// BlockCacheHitRate always returns 0; see BlockCacheEvictions.
func (s Stats) BlockCacheHitRate() float64 { return 0 }

// TotalStalls sums stall events across reasons.
func (s Stats) TotalStalls() int64 {
	var n int64
	for _, v := range s.StallEvents {
		n += v
	}
	return n
}

// WriteAmplification estimates device-write bytes per user byte: WAL +
// flush + compaction + value-log writes over the user payload. UserBytes
// (pre-separation key+value volume) is the denominator; snapshots
// predating the counter fall back to FlushBytes, which equalled user
// volume before value separation existed.
func (s Stats) WriteAmplification() float64 {
	device := s.WALBytesWritten + s.FlushBytes + s.CompactionWriteBytes + s.VLogBytes
	user := s.UserBytes
	if user == 0 {
		user = s.FlushBytes
	}
	if user == 0 {
		return 1
	}
	return float64(device) / float64(user)
}

// Health is the instantaneous state the KVACCEL Detector polls (§V-C):
// the three write-stall signals plus whether writers are blocked right
// now.
type Health struct {
	L0Files                int
	ImmutableMemtables     int
	MemtableBytes          int64
	MemtableCapacity       int64
	PendingCompactionBytes int64
	// Stalled is true while at least one writer is blocked in a hard
	// stall.
	Stalled bool
	// SlowdownLikely is true when any slowdown trigger currently holds —
	// the Detector's "write stall is imminent" signal.
	SlowdownLikely bool
	// ActiveCompactions and QueuedFlushes describe background load.
	ActiveCompactions int
	QueuedFlushes     int
}

// Add returns the field-wise sum of two stats snapshots — the
// aggregation the sharded front-end uses to report one engine-shaped
// counter set across N independent shards.
func (s Stats) Add(o Stats) Stats {
	s.Puts += o.Puts
	s.Gets += o.Gets
	s.Deletes += o.Deletes
	s.ReadsMemtable += o.ReadsMemtable
	s.ReadsImmutable += o.ReadsImmutable
	for i := range s.ReadsLevel {
		s.ReadsLevel[i] += o.ReadsLevel[i]
	}
	s.ReadMisses += o.ReadMisses
	s.BloomConsults += o.BloomConsults
	s.BloomNegatives += o.BloomNegatives
	s.BloomFalsePositives += o.BloomFalsePositives
	s.VLogDerefs += o.VLogDerefs
	s.Slowdowns += o.Slowdowns
	for i := range s.StallEvents {
		s.StallEvents[i] += o.StallEvents[i]
	}
	s.StallTime += o.StallTime
	s.GroupCommits += o.GroupCommits
	s.GroupedRecords += o.GroupedRecords
	s.WALAppends += o.WALAppends
	s.WouldStalls += o.WouldStalls
	s.WALErrors += o.WALErrors
	s.PipelinedAppends += o.PipelinedAppends
	s.Flushes += o.Flushes
	s.FlushBytes += o.FlushBytes
	s.Compactions += o.Compactions
	s.CompactionReadBytes += o.CompactionReadBytes
	s.CompactionWriteBytes += o.CompactionWriteBytes
	s.WALBytesWritten += o.WALBytesWritten
	s.UserBytes += o.UserBytes
	s.VLogBytes += o.VLogBytes
	s.VLogSegments += o.VLogSegments
	s.VLogDiscardBytes += o.VLogDiscardBytes
	s.VLogGCRewrites += o.VLogGCRewrites
	return s
}

// MemtablePressure reports the anticipatory stall signal: the active
// memtable is filling (>= 60%) while the flush backlog is at its limit,
// so the next rotation would block the writer.
func (h Health) MemtablePressure() bool {
	return h.ImmutableMemtables > 0 &&
		h.MemtableCapacity > 0 && h.MemtableBytes*10 >= h.MemtableCapacity*6
}

// StallSignal is the engine's exported write-stall prediction (§V-C): a
// stop condition already holding, a slowdown trigger, or the
// anticipatory memtable-pressure signal. The KVACCEL Detector redirects
// writes while this is true.
func (h Health) StallSignal() bool {
	return h.Stalled || h.SlowdownLikely || h.MemtablePressure()
}
