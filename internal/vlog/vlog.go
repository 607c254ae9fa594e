// Package vlog implements the WiscKey-style value log the Main-LSM
// separates large values into: append-only segment files on the
// simulated file system, CRC-framed records, head-segment rotation, and
// TRIM-based segment punching.
//
// Like the WAL, an Append is a memory append plus checksummed encoding;
// a dedicated writeback runner drains full chunks to the file system
// asynchronously, so value bytes reach the device in large sequential
// write-backs and backpressure appears through the bounded queue. A
// segment is one buffer, allocated when it opens: records are encoded
// into it, write-back hands slices of it to the file system, which owns
// what it is given, so the buffer becomes the segment's file without a
// copy. The log keeps its reference until every byte is acked, so reads
// of not-yet-written-back records never touch the device — the
// page-cache behaviour a real vlog read would see.
//
// Crash semantics mirror the WAL: recovery keeps each segment's longest
// checksummed frame prefix and truncates the torn tail. Which prefix is
// durable is the acked write-back watermark, which the LSM's manifest
// persists; pointers into a segment are only flushed to SSTs after a
// Sync, so an SST-resident pointer always dereferences durable bytes.
package vlog

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"kvaccel/internal/cpu"
	"kvaccel/internal/encoding"
	"kvaccel/internal/fs"
	"kvaccel/internal/vclock"
)

// ErrSegmentGone is returned by ReadValue when the pointer's segment has
// been punched. The LSM's read path treats it as a retry signal: GC
// rewrote the value through the normal write path before punching, so a
// re-read observes the fresh pointer.
var ErrSegmentGone = errors.New("vlog: segment punched")

// ErrClosed is returned by operations on a closed Manager.
var ErrClosed = errors.New("vlog: closed")

// segmentPrefix names segment files VLOG-%06d; the suffix deliberately
// shares nothing with the ".log" WAL scan or the ".sst" orphan sweep.
const segmentPrefix = "VLOG-"

// frameHeaderSize is u32 payload length + u32 CRC32C.
const frameHeaderSize = 8

// SegmentName returns segment id's file name.
func SegmentName(id uint32) string { return fmt.Sprintf("%s%06d", segmentPrefix, id) }

// ParseSegmentName inverts SegmentName.
func ParseSegmentName(name string) (uint32, bool) {
	if !strings.HasPrefix(name, segmentPrefix) {
		return 0, false
	}
	n, err := strconv.ParseUint(name[len(segmentPrefix):], 10, 32)
	if err != nil {
		return 0, false
	}
	return uint32(n), true
}

// Options tunes the log.
type Options struct {
	// SegmentSize rotates the head segment once it exceeds this many
	// bytes; sealed segments are the GC unit.
	SegmentSize int64
	// ChunkSize is the write-back granularity; QueueDepth bounds the
	// number of unwritten chunks before Append blocks.
	ChunkSize  int
	QueueDepth int
	// CPU and AppendCPU model the host cost of one Append (checksum +
	// buffer copy), as in the WAL.
	CPU       *cpu.Pool
	AppendCPU time.Duration
}

// validate panics, naming the field, on a size or depth below 1.
func (o Options) validate() {
	switch {
	case o.SegmentSize < 1:
		panic("vlog: Options needs SegmentSize >= 1")
	case o.ChunkSize < 1:
		panic("vlog: Options needs ChunkSize >= 1")
	case o.QueueDepth < 1:
		panic("vlog: Options needs QueueDepth >= 1")
	}
}

// SegmentInfo is one segment's manifest record: the acked (durable)
// write-back watermark and the discard bytes compaction has reported.
type SegmentInfo struct {
	ID      uint32
	Durable int64
	Discard int64
}

// ManifestState is the vlog section the LSM manifest persists: the head
// allocation counter (so a restart never reuses a segment id) and the
// live segment list. The GC watermark is implicit — segments below the
// lowest listed id were punched.
type ManifestState struct {
	NextSeg  uint32
	Segments []SegmentInfo
}

// Stats is a snapshot of the manager's counters.
type Stats struct {
	Segments      int // live segments (head included)
	HeadSeg       uint32
	TailSeg       uint32
	BytesAppended int64 // logical record bytes appended
	BytesWritten  int64 // bytes acked by device write-back
	DiscardBytes  int64 // cumulative dead bytes reported by compaction
	PunchedBytes  int64 // cumulative bytes reclaimed by segment punch
}

// Entry is one decoded record, as surfaced to GC.
type Entry struct {
	Key   []byte
	Value []byte
	Ptr   encoding.ValuePointer
}

type segment struct {
	id      uint32
	name    string // the segment's file name, computed once
	size    int64  // logical bytes appended
	queued  int64  // bytes handed to the writeback queue
	flushed int64  // bytes acked by fs.Append
	discard int64  // dead bytes reported by compaction
	sealed  bool
	dead    bool // fully collected, awaiting punch; never a GC candidate again
	// mem is the segment's one buffer. Bytes below queued belong to the
	// file system and are only read here; reads are served from mem until
	// flushed == size, when the reference is dropped.
	mem []byte
}

type wbChunk struct {
	seg  *segment
	data []byte
}

// Manager is the value log: the set of live segments plus the head being
// appended to.
type Manager struct {
	fsys *fs.FileSystem
	opt  Options

	segs    map[uint32]*segment
	head    *segment // nil until the first append after open/rotation
	nextSeg uint32
	pending int // chunks queued but not yet written
	closed  bool
	werr    error // sticky writeback error
	drained *vclock.Cond

	bytesAppended int64
	bytesWritten  int64
	discardTotal  int64
	punchedBytes  int64

	// Write-back lane: chunks must enter the queue in offset order or the
	// segment file ends up permuted against the pointers handed out, but
	// Push can park, and another runner may cut chunks meanwhile. A caller
	// that cuts chunks takes pushTail++ before it can park and pushes only
	// once pushHead reaches its ticket (lsm's walHead/walTail idiom).
	pushTail uint64
	pushHead uint64
	pushTurn *vclock.Cond

	queue *vclock.Queue[wbChunk]
}

// Open creates an empty value log and starts its writeback runner.
func Open(clk *vclock.Clock, fsys *fs.FileSystem, opt Options) *Manager {
	opt.validate()
	m := &Manager{fsys: fsys, opt: opt, segs: make(map[uint32]*segment), nextSeg: 1}
	m.drained = vclock.NewCond("vlog.drained")
	m.pushTurn = vclock.NewCond("vlog.pushTurn")
	m.queue = vclock.NewQueue[wbChunk](opt.QueueDepth, "vlog.queue")
	clk.Go("vlog.writeback", m.writeback)
	return m
}

// Recover rebuilds a value log after a crash: the union of the manifest's
// segment list and the VLOG- files on disk, each truncated to its longest
// checksummed frame prefix (the torn-tail contract the WAL follows).
// Segments the manifest lists but the file system lacks were punched
// before the crash and stay gone. Appends resume into a fresh head
// segment; recovered segments are sealed and become GC candidates.
func Recover(r *vclock.Runner, clk *vclock.Clock, fsys *fs.FileSystem, opt Options, ms ManifestState) (*Manager, error) {
	opt.validate()
	m := &Manager{fsys: fsys, opt: opt, segs: make(map[uint32]*segment), nextSeg: 1}
	m.drained = vclock.NewCond("vlog.drained")
	m.pushTurn = vclock.NewCond("vlog.pushTurn")
	m.queue = vclock.NewQueue[wbChunk](opt.QueueDepth, "vlog.queue")

	discard := make(map[uint32]int64, len(ms.Segments))
	for _, si := range ms.Segments {
		discard[si.ID] = si.Discard
	}
	for _, name := range fsys.List() {
		id, ok := ParseSegmentName(name)
		if !ok {
			continue
		}
		data, err := fsys.ReadFile(r, name)
		if err != nil {
			return nil, fmt.Errorf("vlog: recovering %s: %w", name, err)
		}
		valid := scanValidSize(data)
		if valid == 0 {
			_ = fsys.Remove(r, name)
			continue
		}
		if valid < int64(len(data)) {
			if err := fsys.WriteFile(r, name, data[:valid]); err != nil {
				return nil, fmt.Errorf("vlog: truncating torn tail of %s: %w", name, err)
			}
		}
		d := discard[id]
		if d > valid {
			d = valid
		}
		m.segs[id] = &segment{id: id, name: name, size: valid, queued: valid, flushed: valid, discard: d, sealed: true}
		m.discardTotal += d
		if id >= m.nextSeg {
			m.nextSeg = id + 1
		}
	}
	if ms.NextSeg > m.nextSeg {
		m.nextSeg = ms.NextSeg
	}
	clk.Go("vlog.writeback", m.writeback)
	return m, nil
}

// scanValidSize returns the length of data's longest prefix of complete,
// checksummed frames.
func scanValidSize(data []byte) int64 {
	var off int64
	for int64(len(data))-off >= frameHeaderSize {
		b := data[off:]
		length, b, _ := encoding.U32(b)
		crc, b, _ := encoding.U32(b)
		if uint64(len(b)) < uint64(length) {
			break
		}
		payload := b[:length]
		if encoding.Checksum(payload) != crc {
			break
		}
		off += frameHeaderSize + int64(length)
	}
	return off
}

// Append frames one (key, value) record into the head segment and
// returns its pointer. The key rides along so GC can check liveness
// without a reverse index. Rotation seals the head once it exceeds
// SegmentSize. Append blocks only when the writeback queue is full.
func (m *Manager) Append(r *vclock.Runner, key, value []byte) (encoding.ValuePointer, error) {
	if m.opt.CPU != nil && m.opt.AppendCPU > 0 {
		m.opt.CPU.Run(r, m.opt.AppendCPU)
	}
	payloadLen := encRecordSize(key, value)
	if m.closed {
		return encoding.ValuePointer{}, ErrClosed
	}
	if m.werr != nil {
		err := m.werr
		return encoding.ValuePointer{}, err
	}
	if m.head == nil {
		// Room for every frame up to the one that seals the segment, taken
		// to be no larger than this one. make clears nothing in memory
		// fresh from the OS, so pages the segment never fills stay unmapped.
		m.head = &segment{id: m.nextSeg, name: SegmentName(m.nextSeg),
			mem: make([]byte, 0, int(m.opt.SegmentSize)+frameHeaderSize+payloadLen)}
		m.segs[m.head.id] = m.head
		m.nextSeg++
	}
	seg := m.head
	off := seg.size
	seg.mem = encoding.PutU32(seg.mem, uint32(payloadLen))
	sumAt := len(seg.mem)
	seg.mem = encoding.PutU32(seg.mem, 0) // checksum patched below
	payloadStart := len(seg.mem)
	seg.mem = appendRecord(seg.mem, key, value)
	sum := encoding.Checksum(seg.mem[payloadStart:])
	patchU32(seg.mem[sumAt:sumAt+4], sum)
	frameLen := int64(frameHeaderSize + payloadLen)
	seg.size += frameLen
	m.bytesAppended += frameLen

	var chunks []wbChunk
	if seg.size-seg.queued >= int64(m.opt.ChunkSize) {
		chunks = append(chunks, m.cut(seg))
	}
	if seg.size >= m.opt.SegmentSize {
		seg.sealed = true
		if seg.queued < seg.size {
			chunks = append(chunks, m.cut(seg))
		}
		m.head = nil // next Append opens a fresh segment
	}
	ptr := encoding.ValuePointer{Seg: seg.id, Off: uint32(off), Len: uint32(frameLen)}
	if len(chunks) == 0 {
		return ptr, nil
	}
	m.pushInOrder(r, chunks...)
	return ptr, nil
}

// cut takes the segment's unqueued bytes as a chunk for write-back.
// Its capacity is clipped: the file system will own it, and the records
// appended behind it must stay out of its reach.
func (m *Manager) cut(seg *segment) wbChunk {
	c := wbChunk{seg: seg, data: seg.mem[seg.queued:seg.size:seg.size]}
	seg.queued = seg.size
	m.pending++
	return c
}

// pushInOrder hands chunks just cut to the writeback queue behind every
// chunk cut before them.
func (m *Manager) pushInOrder(r *vclock.Runner, chunks ...wbChunk) {
	ticket := m.pushTail
	m.pushTail++
	for m.pushHead != ticket {
		m.pushTurn.Wait(r)
	}
	for _, c := range chunks {
		m.queue.Push(r, c)
	}
	m.pushHead++
	m.pushTurn.Broadcast()
}

// Sync flushes the head's partial buffer and parks r until every queued
// chunk is on the device, returning the sticky writeback error. A nil
// return guarantees every record appended so far is durable.
func (m *Manager) Sync(r *vclock.Runner) error {
	if m.head != nil && m.head.queued < m.head.size && !m.closed {
		m.pushInOrder(r, m.cut(m.head))
	}
	for m.pending > 0 {
		m.drained.Wait(r)
	}
	return m.werr
}

// ReadValue dereferences key's pointer, returning the record's value
// bytes. Bytes not yet written back are served from the segment's
// in-memory buffer; durable bytes read through the file system (and its
// page cache). A frame that checks out but carries another key is
// ErrCorrupt: a misplaced record must never read back as key's value.
//
// The value is a read-only view of the segment's buffer, which it pins;
// nothing ever writes a frame's bytes after Append returns its pointer.
func (m *Manager) ReadValue(r *vclock.Runner, ptr encoding.ValuePointer, key []byte) ([]byte, error) {
	k, v, err := m.readRecord(r, ptr)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(k, key) {
		return nil, fmt.Errorf("vlog: pointer %d:%d+%d holds key %q, not %q: %w", ptr.Seg, ptr.Off, ptr.Len, k, key, encoding.ErrCorrupt)
	}
	return v, nil
}

// readRecord dereferences ptr into its (key, value) pair, parsed in place:
// the frame is a view of the segment's buffer while the log still holds
// it, else the file system's view of the segment file.
func (m *Manager) readRecord(r *vclock.Runner, ptr encoding.ValuePointer) (key, value []byte, err error) {
	seg, ok := m.segs[ptr.Seg]
	if !ok {
		return nil, nil, ErrSegmentGone
	}
	end := int64(ptr.Off) + int64(ptr.Len)
	if end > seg.size || ptr.Len < frameHeaderSize {
		return nil, nil, fmt.Errorf("vlog: pointer %d:%d+%d out of range: %w", ptr.Seg, ptr.Off, ptr.Len, encoding.ErrCorrupt)
	}
	if seg.mem != nil {
		frame := seg.mem[ptr.Off:end:end]
		return parseFrame(frame)
	}
	name := seg.name
	frame, err := m.fsys.ReadAt(r, name, int(ptr.Off), int(ptr.Len))
	if err != nil {
		return nil, nil, err
	}
	return parseFrame(frame)
}

// parseFrame validates one framed record and splits its payload into
// capacity-clipped views of frame.
func parseFrame(frame []byte) (key, value []byte, err error) {
	if len(frame) < frameHeaderSize {
		return nil, nil, encoding.ErrCorrupt
	}
	length, rest, _ := encoding.U32(frame)
	crc, rest, _ := encoding.U32(rest)
	if uint64(len(rest)) != uint64(length) {
		return nil, nil, encoding.ErrCorrupt
	}
	if encoding.Checksum(rest) != crc {
		return nil, nil, encoding.ErrCorrupt
	}
	klen, rest, err := encoding.Uvarint(rest)
	if err != nil || uint64(len(rest)) < klen {
		return nil, nil, encoding.ErrCorrupt
	}
	return rest[:klen:klen], rest[klen:len(rest):len(rest)], nil
}

// SegmentEntries decodes every record of a live segment, oldest first —
// the GC's sequential segment read; r pays the device read time for
// durable bytes. Keys and values are read-only, as ReadValue's are.
func (m *Manager) SegmentEntries(r *vclock.Runner, id uint32) ([]Entry, error) {
	seg, ok := m.segs[id]
	if !ok {
		return nil, ErrSegmentGone
	}
	size := seg.size
	var data []byte
	if seg.mem != nil {
		data = seg.mem[:size:size]
	} else {
		var err error
		data, err = m.fsys.ReadAt(r, seg.name, 0, int(size))
		if err != nil {
			return nil, err
		}
	}
	var out []Entry
	var off int64
	for off < size {
		frameEnd := off + frameHeaderSize
		if frameEnd > size {
			break
		}
		length, _, _ := encoding.U32(data[off:])
		frameEnd += int64(length)
		if frameEnd > size {
			break
		}
		k, v, err := parseFrame(data[off:frameEnd])
		if err != nil {
			return nil, fmt.Errorf("vlog: segment %d record at %d: %w", id, off, err)
		}
		out = append(out, Entry{
			Key:   k,
			Value: v,
			Ptr:   encoding.ValuePointer{Seg: id, Off: uint32(off), Len: uint32(frameEnd - off)},
		})
		off = frameEnd
	}
	return out, nil
}

// VerifyKey reports whether ptr dereferences to a record that actually
// carries key — the strong WAL-replay validation for pointer records.
// The bounds check alone (Resolves) cannot tell a live record from stale
// bytes a dead incarnation left at the same (segment, offset): the
// record's embedded key can. A mismatch (or unreadable frame) means the
// pointer's bytes never became durable and the replayed record must be
// dropped, exactly like a torn WAL tail.
func (m *Manager) VerifyKey(r *vclock.Runner, ptr encoding.ValuePointer, key []byte) bool {
	_, err := m.ReadValue(r, ptr, key)
	return err == nil
}

// Resolves reports whether ptr dereferences into a live segment's valid
// range — the WAL-replay validation for pointer records.
func (m *Manager) Resolves(ptr encoding.ValuePointer) bool {
	seg, ok := m.segs[ptr.Seg]
	return ok && ptr.Len >= frameHeaderSize && int64(ptr.Off)+int64(ptr.Len) <= seg.size
}

// MarkDiscard adds n dead bytes to a segment's discard counter —
// compaction's feed when it drops a superseded pointer.
func (m *Manager) MarkDiscard(id uint32, n int64) {
	seg, ok := m.segs[id]
	if !ok {
		return
	}
	seg.discard += n
	if seg.discard > seg.size {
		seg.discard = seg.size
	}
	m.discardTotal += n
}

// PickGC returns the sealed, fully written-back segment with the highest
// discard ratio at or above minRatio, the oldest of equals, or ok=false.
func (m *Manager) PickGC(minRatio float64) (uint32, bool) {
	var best uint32
	bestRatio := -1.0
	for id, seg := range m.segs {
		if !seg.sealed || seg.dead || seg.flushed < seg.size || seg.size == 0 {
			continue
		}
		ratio := float64(seg.discard) / float64(seg.size)
		if ratio >= minRatio && (ratio > bestRatio || ratio == bestRatio && id < best) {
			best, bestRatio = id, ratio
		}
	}
	return best, bestRatio >= 0
}

// MarkDead retires a fully collected segment from GC candidacy; it stays
// readable until Punch so pinned readers can finish dereferencing into it.
func (m *Manager) MarkDead(id uint32) {
	if seg, ok := m.segs[id]; ok {
		seg.dead = true
	}
}

// Punch removes a dead segment: its pages go back to the device via
// TRIM (fs.Remove issues the DSM command), which is the paper's
// host-SSD collaboration cost model for space reclamation. Returns the
// reclaimed byte count.
func (m *Manager) Punch(r *vclock.Runner, id uint32) int64 {
	seg, ok := m.segs[id]
	if !ok {
		return 0
	}
	delete(m.segs, id)
	m.punchedBytes += seg.size
	if m.fsys.Exists(seg.name) {
		_ = m.fsys.Remove(r, seg.name)
	}
	return seg.size
}

// ManifestSnapshot captures the state the LSM manifest persists. Durable
// is the acked write-back watermark — never ahead of the device — so a
// recovery trusting it is safe even when the manifest is newer than the
// last vlog Sync.
func (m *Manager) ManifestSnapshot() ManifestState {
	ms := ManifestState{NextSeg: m.nextSeg}
	for id, seg := range m.segs {
		ms.Segments = append(ms.Segments, SegmentInfo{ID: id, Durable: seg.flushed, Discard: seg.discard})
	}
	// In id order: the list ends up in the manifest's bytes.
	slices.SortFunc(ms.Segments, func(a, b SegmentInfo) int { return cmp.Compare(a.ID, b.ID) })
	return ms
}

// Stats snapshots the counters.
func (m *Manager) Stats() Stats {
	s := Stats{
		Segments:      len(m.segs),
		BytesAppended: m.bytesAppended,
		BytesWritten:  m.bytesWritten,
		DiscardBytes:  m.discardTotal,
		PunchedBytes:  m.punchedBytes,
	}
	first := true
	for id := range m.segs {
		if first || id > s.HeadSeg {
			s.HeadSeg = id
		}
		if first || id < s.TailSeg {
			s.TailSeg = id
		}
		first = false
	}
	return s
}

// Close stops the writeback runner after draining queued chunks. The
// head's final partial buffer is discarded (callers Sync first if they
// need it) — exactly the WAL's close contract.
func (m *Manager) Close() {
	if m.closed {
		return
	}
	m.closed = true
	m.queue.Close()
}

func (m *Manager) writeback(r *vclock.Runner) {
	var chunks [][]byte // one append's chunks; reused every round
	for {
		chunk, ok := m.queue.Pop(r)
		if !ok {
			return
		}
		// Take consecutive same-segment chunks into one large append, as
		// the kernel's writeback path batches dirty pages.
		for ok {
			seg := chunk.seg
			chunks = append(chunks[:0], chunk.data)
			for {
				chunk, ok = m.queue.TryPop()
				if !ok || chunk.seg != seg {
					break
				}
				chunks = append(chunks, chunk.data)
			}
			m.flushBatch(r, seg, chunks)
			clear(chunks) // do not pin the segment's buffer past its file
		}
	}
}

// flushBatch appends one round's chunks to their segment file as one
// write — the file system takes them as they are, so the segment's buffer
// becomes its file — and acks the flushed watermark. A failed append
// leaves a hole, so the error is sticky, as in the WAL.
func (m *Manager) flushBatch(r *vclock.Runner, seg *segment, chunks [][]byte) {
	var total int64
	for _, c := range chunks {
		total += int64(len(c))
	}
	err := m.fsys.Append(r, seg.name, chunks...)
	if err != nil && m.werr == nil {
		m.werr = err
	}
	m.bytesWritten += total
	if m.segs[seg.id] == seg && err == nil {
		seg.flushed += total
		if seg.sealed && seg.flushed >= seg.size {
			seg.mem = nil // fully durable: reads go through the fs page cache
		}
	}
	m.pending -= len(chunks)
	m.drained.Broadcast()
}

// encRecordSize is the payload size of one record.
func encRecordSize(key, value []byte) int {
	return uvarintLen(uint64(len(key))) + len(key) + len(value)
}

// appendRecord encodes uvarint(klen) | key | value.
func appendRecord(dst, key, value []byte) []byte {
	dst = encoding.PutUvarint(dst, uint64(len(key)))
	dst = append(dst, key...)
	dst = append(dst, value...)
	return dst
}

func patchU32(dst []byte, x uint32) {
	dst[0] = byte(x)
	dst[1] = byte(x >> 8)
	dst[2] = byte(x >> 16)
	dst[3] = byte(x >> 24)
}

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}
