package lsm

import (
	"fmt"

	"kvaccel/internal/encoding"
	"kvaccel/internal/memtable"
	"kvaccel/internal/trace"
	"kvaccel/internal/vclock"
	"kvaccel/internal/vlog"
)

func (db *DB) vlogOptions() vlog.Options {
	return vlog.Options{
		SegmentSize: db.opt.VLogSegmentSize,
		ChunkSize:   db.opt.WALChunkSize,
		QueueDepth:  db.opt.WALQueueDepth,
		CPU:         db.opt.CPU,
		AppendCPU:   db.opt.Cost.WALAppendCPU,
	}
}

// separates reports whether op should have its value moved to the value
// log: a Put at or above ValueThreshold.
func (db *DB) separates(op batchOp) bool {
	return db.vlog != nil && db.opt.ValueThreshold > 0 &&
		op.kind == memtable.KindPut && len(op.value) >= db.opt.ValueThreshold
}

// separateOps sets w.bytes and swaps each qualifying op of w for a
// pointer to its value-log copy. A Batch's op slice belongs to the caller
// — KVACCEL's failover path replays the same Batch against the Dev-LSM,
// which needs the original values — so it is copied before the first
// swap; a point write's single-op store is the writer's own.
func (db *DB) separateOps(r *vclock.Runner, w *groupWriter) error {
	w.bytes = 0
	moved := 0
	for i := range w.ops {
		op := &w.ops[i]
		if db.separates(*op) {
			if moved == 0 {
				if err := db.preSeparateStallCheck(w.noStall); err != nil {
					return err
				}
				if op != &w.single[0] {
					w.ops = append([]batchOp(nil), w.ops...)
					op = &w.ops[i]
				}
			}
			ptr, err := db.appendVLog(r, op.key, op.value)
			if err != nil {
				return err
			}
			enc := encoding.AppendValuePointer(make([]byte, 0, encoding.ValuePointerSize), ptr)
			op.kind, op.value = memtable.KindValuePtr, enc
			moved++
		}
		w.bytes += len(op.key) + len(op.value) + 16
	}
	return nil
}

// preSeparateStallCheck fails a NoStallWait write before it pays the
// value-log append: the group queue would reject it anyway, and the
// appended value would be instant garbage.
func (db *DB) preSeparateStallCheck(noStall bool) error {
	if !noStall {
		return nil
	}
	if db.stalledWriters > 0 {
		db.stats.WouldStalls++
		return ErrWouldStall
	}
	return nil
}

// appendVLog frames one separated value into the value log.
func (db *DB) appendVLog(r *vclock.Runner, key, value []byte) (encoding.ValuePointer, error) {
	sp := db.opt.Trace.Begin(r, trace.PhaseVLogAppend, "vlog-append")
	ptr, err := db.vlog.Append(r, key, value)
	sp.EndArg(r, int64(len(value)))
	return ptr, err
}

// derefPointer resolves the value bytes behind key's KindValuePtr entry;
// the value log checks the record it finds there is key's own.
func (db *DB) derefPointer(r *vclock.Runner, key, pv []byte) ([]byte, error) {
	ptr, err := encoding.DecodeValuePointer(pv)
	if err != nil {
		return nil, err
	}
	if db.vlog == nil {
		return nil, fmt.Errorf("lsm: value pointer with no value log")
	}
	db.stats.VLogDerefs++
	sp := db.opt.Trace.Begin(r, trace.PhaseVLogRead, "vlog-read")
	v, err := db.vlog.ReadValue(r, ptr, key)
	sp.EndArg(r, int64(len(v)))
	return v, err
}
