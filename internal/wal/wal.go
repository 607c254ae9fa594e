// Package wal implements the Main-LSM's write-ahead log on the block-
// interface file system.
//
// db_bench's fillrandom runs with WAL enabled but unsynced, so records
// land in the OS page cache and reach the device in large write-backs.
// The model reproduces that: Append is a memory append plus checksummed
// encoding; a dedicated writeback runner drains full chunks to the file
// system asynchronously. Backpressure appears exactly where it does in
// production — when the device cannot absorb write-back as fast as the
// writer produces it, the bounded queue parks the writer.
package wal

import (
	"fmt"
	"time"

	"kvaccel/internal/cpu"
	"kvaccel/internal/encoding"
	"kvaccel/internal/fs"
	"kvaccel/internal/vclock"
)

// Options tunes the log.
type Options struct {
	// ChunkSize is the write-back granularity (bytes buffered before the
	// writeback runner is handed a chunk).
	ChunkSize int
	// QueueDepth bounds the number of un-written chunks before Append
	// blocks (page-cache dirty limit).
	QueueDepth int
	// CPU and AppendCPU model the host cost of one Append call (checksum
	// + log-buffer copy): each Append charges AppendCPU to the calling
	// runner on CPU before touching the log. Group commit amortizes
	// exactly this charge — one Append covers a whole write group. Zero
	// or a nil pool disables the charge.
	CPU       *cpu.Pool
	AppendCPU time.Duration
}

// Log is one write-ahead log file.
type Log struct {
	fsys *fs.FileSystem
	name string
	opt  Options

	buf     []byte
	pending int // chunks queued but not yet written
	closed  bool
	drained *vclock.Cond

	queue *vclock.Queue[[]byte]

	bytesWritten int64
	werr         error // sticky writeback error (first device failure)
}

// Open creates a log file and starts its writeback runner on clk. It
// panics on a ChunkSize or QueueDepth below 1.
func Open(clk *vclock.Clock, fsys *fs.FileSystem, name string, opt Options) *Log {
	if opt.ChunkSize < 1 {
		panic("wal: Options needs ChunkSize >= 1")
	}
	if opt.QueueDepth < 1 {
		panic("wal: Options needs QueueDepth >= 1")
	}
	l := &Log{fsys: fsys, name: name, opt: opt}
	l.drained = vclock.NewCond("wal.drained:" + name)
	l.queue = vclock.NewQueue[[]byte](opt.QueueDepth, "wal.queue:"+name)
	clk.Go("wal.writeback:"+name, l.writeback)
	return l
}

// Append adds one record (an encoding frame: u32 length, u32 crc,
// payload) to the log buffer, handing full chunks to the writeback
// runner. It blocks only when the writeback queue is full.
//
// The payload is written where it will lie: encode is called once with
// the log buffer's tail and must append the payload to it and return the
// result, as the strconv.Append functions do; Append then fills in the
// length and checksum in front of it. size is the caller's estimate of
// the payload, an upper bound if it can give one: the buffer is sized
// by it, so that the chunk handed off has no slack. encode must do
// nothing but append; whatever it copies from stays the caller's.
//
// Append returns the payload as it lies in the log: a read-only view,
// capacity clipped, whose bytes are never written again — not by later
// appends, chunk hand-offs, a buffer outgrown, Sync, Close or Delete — so
// the caller may keep views of it for as long as it likes (the Main-LSM's
// memtable holds its entries that way). Keeping one pins the log buffer
// it points into.
func (l *Log) Append(r *vclock.Runner, size int, encode func(dst []byte) []byte) ([]byte, error) {
	// The encode cost is charged first: the CPU pool may park this runner,
	// and the buffer is read only after it returns.
	if l.opt.CPU != nil && l.opt.AppendCPU > 0 {
		l.opt.CPU.Run(r, l.opt.AppendCPU)
	}
	if l.closed {
		return nil, fmt.Errorf("wal: %s: append on closed log", l.name)
	}
	if l.werr != nil {
		return nil, l.werr
	}
	if need := len(l.buf) + encoding.FrameHeader + size; need > cap(l.buf) {
		// A chunk is handed off by the record that takes it to ChunkSize,
		// and the file system keeps the buffer (one left an eighth empty it
		// would copy): a fresh buffer has room for a chunk plus one record,
		// and a record that fits in none — a chunk by itself, or larger
		// than the one the buffer was sized for — gets exactly its room.
		// The records already in the outgrown buffer are copied to the new
		// one, and views of their payloads keep the old one alive.
		if need < l.opt.ChunkSize {
			need += l.opt.ChunkSize
		}
		l.buf = append(make([]byte, 0, need), l.buf...)
	}
	start := len(l.buf)
	l.buf = encode(encoding.BeginFrame(l.buf))
	payload := encoding.SealFrame(l.buf, start)
	var chunk []byte
	if len(l.buf) >= l.opt.ChunkSize {
		chunk = l.buf
		l.buf = nil
		l.pending++
	}
	if chunk != nil {
		l.queue.Push(r, chunk)
	}
	return payload, nil
}

// Sync flushes the partial buffer and parks r until every queued chunk is
// on the device. It returns the log's sticky writeback error: a Sync
// that returns nil guarantees every record appended so far is durable.
func (l *Log) Sync(r *vclock.Runner) error {
	if len(l.buf) > 0 && !l.closed {
		chunk := l.buf
		l.buf = nil
		l.pending++
		l.queue.Push(r, chunk)
	}
	l.drained.WaitUntil(r, logDrained, l)
	return l.werr
}

func logDrained(l any) bool { return l.(*Log).pending <= 0 }

// Close stops the writeback runner after draining queued chunks. The
// final partial buffer is discarded (callers Sync first if they need it).
func (l *Log) Close() {
	if l.closed {
		return
	}
	l.closed = true
	l.queue.Close()
}

// Delete removes the log's backing file (after a successful memtable
// flush makes it obsolete); r pays the TRIM command cost.
func (l *Log) Delete(r *vclock.Runner) {
	if l.fsys.Exists(l.name) {
		_ = l.fsys.Remove(r, l.name)
	}
}

// BytesWritten returns the bytes actually written back to the device.
func (l *Log) BytesWritten() int64 { return l.bytesWritten }

func (l *Log) writeback(r *vclock.Runner) {
	var chunks [][]byte // one round's chunks; reused every round
	for {
		chunk, ok := l.queue.Pop(r)
		if !ok {
			return
		}
		// Take everything already queued into one large append, the way
		// the kernel's writeback path batches dirty pages; large appends
		// reach the device's full die parallelism. The file system takes
		// the chunks as they are: each becomes an extent of the file.
		chunks = append(chunks, chunk)
		total := len(chunk)
		for {
			c, ok := l.queue.TryPop()
			if !ok {
				break
			}
			chunks = append(chunks, c)
			total += len(c)
		}
		// fs.Append spends the block-path device time. A failed append
		// leaves a hole in the log, so the error is sticky: no later
		// Sync may report the log durable again.
		err := l.fsys.Append(r, l.name, chunks...)
		if err != nil && l.werr == nil {
			l.werr = err
		}
		l.bytesWritten += int64(total)
		l.pending -= len(chunks)
		l.drained.Broadcast()
		clear(chunks) // do not pin the chunks until the next round
		chunks = chunks[:0]
	}
}

// Replay decodes every complete record in the log file, calling fn for
// each payload. It stops at the first corrupt or truncated record, which
// is the crash-recovery contract of a WAL: recovery keeps the longest
// checksummed prefix and discards the torn tail. A payload is a
// read-only view of the file's bytes, capacity clipped, that stays valid
// after the file is removed: fn may keep views of it, and nothing fn
// appends to one reaches the next record.
func Replay(r *vclock.Runner, fsys *fs.FileSystem, name string, fn func(payload []byte) error) error {
	data, err := readLog(r, fsys, name)
	for err == nil {
		payload, rest, ok := encoding.NextFrame(data)
		if !ok {
			return nil // truncated or torn tail: normal after a crash
		}
		err = fn(payload)
		data = rest
	}
	return err
}

// ReplayUnchecked replays without verifying record checksums, admitting
// torn or corrupt tails as if they were valid records. It exists solely
// so the torture suite can prove a broken recovery (one that skips
// torn-tail truncation) is caught by the oracle; real recovery must
// never use it.
func ReplayUnchecked(r *vclock.Runner, fsys *fs.FileSystem, name string, fn func(payload []byte) error) error {
	data, err := readLog(r, fsys, name)
	for err == nil && len(data) >= encoding.FrameHeader {
		n := encoding.FrameLen(data)
		if n > int64(len(data)) {
			// Unchecked mode deliberately admits the truncated payload.
			if len(data) > encoding.FrameHeader {
				err = fn(data[encoding.FrameHeader:len(data):len(data)])
			}
			return err
		}
		err = fn(data[encoding.FrameHeader:n:n])
		data = data[n:]
	}
	return err
}

// readLog returns the log file's bytes, nil when there is no file.
func readLog(r *vclock.Runner, fsys *fs.FileSystem, name string) ([]byte, error) {
	if !fsys.Exists(name) {
		return nil, nil
	}
	return fsys.ReadFile(r, name)
}
