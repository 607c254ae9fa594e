// Package vlog implements the WiscKey-style value log the Main-LSM
// separates large values into: append-only segment files on the
// simulated file system, CRC-framed records and head-segment rotation.
// Nothing reclaims a segment: no workload produces dead value bytes, and
// flush and compaction only count the ones they strand
// (lsm.Stats.VLogDiscardBytes).
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
// Crash semantics mirror the WAL: recovery keeps each segment file's
// longest checksummed frame prefix and truncates the torn tail; the
// manifest records only the next segment id. Pointers into a segment are
// only flushed to SSTs after a Sync, so an SST-resident pointer always
// dereferences durable bytes.
package vlog

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"kvaccel/internal/cpu"
	"kvaccel/internal/encoding"
	"kvaccel/internal/fold"
	"kvaccel/internal/fs"
	"kvaccel/internal/vclock"
)

// ErrClosed is returned by operations on a closed Manager.
var ErrClosed = errors.New("vlog: closed")

// segmentPrefix names segment files VLOG-%06d; the suffix deliberately
// shares nothing with the ".log" WAL scan or the ".sst" orphan sweep.
const segmentPrefix = "VLOG-"

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
	// bytes.
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

// ManifestState is the vlog section the LSM manifest persists: the head
// allocation counter, so a restart never reuses a segment id.
type ManifestState struct {
	NextSeg uint32
}

// Stats is a snapshot of the manager's counters.
type Stats struct {
	Segments      int   // segments (head included)
	BytesAppended int64 // logical record bytes appended
	BytesWritten  int64 // bytes acked by device write-back
}

type segment struct {
	id      uint32
	name    string // the segment's file name, computed once
	size    int64  // logical bytes appended
	queued  int64  // bytes handed to the writeback queue
	flushed int64  // bytes acked by fs.Append
	sealed  bool
	// mem is the segment's one buffer. Bytes below queued belong to the
	// file system and are only read here; reads are served from mem until
	// flushed == size, when the reference is dropped.
	mem []byte
}

type wbChunk struct {
	seg  *segment
	data []byte
}

// Manager is the value log: its segments plus the head being appended
// to.
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

	// Write-back lane: chunks must enter the queue in offset order or the
	// segment file ends up permuted against the pointers handed out, but
	// Push can park, and another runner may cut chunks meanwhile. A caller
	// that cuts chunks takes pushTail++ before it can park and pushes only
	// once pushHead reaches its ticket.
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

// Recover rebuilds a value log after a crash from the VLOG- files on
// disk, each truncated to its longest checksummed frame prefix (the
// torn-tail contract the WAL follows). Appends resume into a fresh head
// segment, numbered past both the files found and the manifest's NextSeg;
// recovered segments are sealed.
func Recover(r *vclock.Runner, clk *vclock.Clock, fsys *fs.FileSystem, opt Options, ms ManifestState) (*Manager, error) {
	opt.validate()
	m := &Manager{fsys: fsys, opt: opt, segs: make(map[uint32]*segment), nextSeg: 1}
	m.drained = vclock.NewCond("vlog.drained")
	m.pushTurn = vclock.NewCond("vlog.pushTurn")
	m.queue = vclock.NewQueue[wbChunk](opt.QueueDepth, "vlog.queue")
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
			if err := fsys.WriteFile(r, name, fold.Literal(data[:valid])); err != nil {
				return nil, fmt.Errorf("vlog: truncating torn tail of %s: %w", name, err)
			}
		}
		m.segs[id] = &segment{id: id, name: name, size: valid, queued: valid, flushed: valid, sealed: true}
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
	rest := data
	for ok := true; ok; {
		_, rest, ok = encoding.NextFrame(rest)
	}
	return int64(len(data) - len(rest))
}

// Append frames one (key, value) record into the head segment and
// returns its pointer. The key rides along so a read can check the
// record is the key's own (ReadValue, VerifyKey). Rotation seals the head once it exceeds
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
			mem: make([]byte, 0, int(m.opt.SegmentSize)+encoding.FrameHeader+payloadLen)}
		m.segs[m.head.id] = m.head
		m.nextSeg++
	}
	seg := m.head
	off := seg.size
	start := len(seg.mem)
	seg.mem = appendRecord(encoding.BeginFrame(seg.mem), key, value)
	encoding.SealFrame(seg.mem, start)
	frameLen := int64(encoding.FrameHeader + payloadLen)
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
	m.drained.WaitUntil(r, writtenBack, m)
	return m.werr
}

func writtenBack(m any) bool { return m.(*Manager).pending <= 0 }

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
		return nil, nil, fmt.Errorf("vlog: pointer %d:%d+%d into no segment: %w", ptr.Seg, ptr.Off, ptr.Len, encoding.ErrCorrupt)
	}
	end := int64(ptr.Off) + int64(ptr.Len)
	if end > seg.size || ptr.Len < encoding.FrameHeader {
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

// parseFrame validates one framed record, all of frame, and splits its
// payload into capacity-clipped views of frame.
func parseFrame(frame []byte) (key, value []byte, err error) {
	payload, rest, ok := encoding.NextFrame(frame)
	if !ok || len(rest) != 0 {
		return nil, nil, encoding.ErrCorrupt
	}
	return splitRecord(payload)
}

// splitRecord splits a record's payload, uvarint(klen) | key | value,
// into capacity-clipped views of it.
func splitRecord(payload []byte) (key, value []byte, err error) {
	klen, rest, err := encoding.Uvarint(payload)
	if err != nil || uint64(len(rest)) < klen {
		return nil, nil, encoding.ErrCorrupt
	}
	return rest[:klen:klen], rest[klen:], nil
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

// Resolves reports whether ptr dereferences into a segment's valid
// range — the WAL-replay validation for pointer records.
func (m *Manager) Resolves(ptr encoding.ValuePointer) bool {
	seg, ok := m.segs[ptr.Seg]
	return ok && ptr.Len >= encoding.FrameHeader && int64(ptr.Off)+int64(ptr.Len) <= seg.size
}

// ManifestSnapshot captures the state the LSM manifest persists.
func (m *Manager) ManifestSnapshot() ManifestState {
	return ManifestState{NextSeg: m.nextSeg}
}

// Stats snapshots the counters.
func (m *Manager) Stats() Stats {
	return Stats{
		Segments:      len(m.segs),
		BytesAppended: m.bytesAppended,
		BytesWritten:  m.bytesWritten,
	}
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
	if err == nil {
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
	return encoding.UvarintLen(uint64(len(key))) + len(key) + len(value)
}

// appendRecord encodes uvarint(klen) | key | value.
func appendRecord(dst, key, value []byte) []byte {
	dst = encoding.PutUvarint(dst, uint64(len(key)))
	dst = append(dst, key...)
	dst = append(dst, value...)
	return dst
}
