// Package adoc implements the ADOC baseline (Yu et al., FAST '23):
// "Automatically Harmonizing Dataflow Between Components". ADOC monitors
// the LSM engine for data overflow — the backlog transitions that precede
// write stalls — and tunes two knobs at runtime: the number of background
// compaction threads and the write batch (memtable) size. More threads
// shorten compaction backlog at the price of host CPU; bigger batches
// absorb bursts at the price of flush latency. Like the real system, it
// still falls back to RocksDB's slowdown as a last resort when its tuning
// cannot keep up (§III-A of the KVACCEL paper).
package adoc

import (
	"time"

	"kvaccel/internal/lsm"
	"kvaccel/internal/vclock"
)

// Options tunes the ADOC controller.
type Options struct {
	// Period is the tuning epoch (how often ADOC inspects the engine).
	Period time.Duration
	// MinThreads/MaxThreads bound the compaction thread knob.
	MinThreads int
	MaxThreads int
	// BaseMemtableBytes/MaxMemtableBytes bound the batch-size knob.
	BaseMemtableBytes int64
	MaxMemtableBytes  int64
	// CalmEpochs is how many quiet epochs pass before ADOC steps its
	// knobs back down.
	CalmEpochs int
}

// DefaultOptions mirrors the evaluation setup: ADOC(n) starts at n
// compaction threads and may scale within [n, 2n] while adjusting batch
// size around the configured memtable.
func DefaultOptions(startThreads int, memtable int64) Options {
	if startThreads < 1 {
		startThreads = 1
	}
	return Options{
		Period:            500 * time.Millisecond,
		MinThreads:        startThreads,
		MaxThreads:        startThreads * 2,
		BaseMemtableBytes: memtable,
		MaxMemtableBytes:  memtable * 2,
		CalmEpochs:        4,
	}
}

// Stats reports the controller's activity.
type Stats struct {
	Epochs          int64
	ThreadIncreases int64
	ThreadDecreases int64
	BatchIncreases  int64
	BatchDecreases  int64
}

// Tuner is the ADOC control loop attached to one lsm.DB.
type Tuner struct {
	db  *lsm.DB
	opt Options

	stats  Stats
	calm   int
	closed bool
}

// Attach starts the ADOC tuning loop over db on clk.
func Attach(clk *vclock.Clock, db *lsm.DB, opt Options) *Tuner {
	if opt.Period <= 0 {
		opt.Period = 500 * time.Millisecond
	}
	if opt.MinThreads < 1 {
		opt.MinThreads = 1
	}
	if opt.MaxThreads < opt.MinThreads {
		opt.MaxThreads = opt.MinThreads
	}
	if opt.CalmEpochs < 1 {
		opt.CalmEpochs = 4
	}
	t := &Tuner{db: db, opt: opt}
	db.SetCompactionThreads(opt.MinThreads)
	if opt.BaseMemtableBytes > 0 {
		db.SetMemtableSize(opt.BaseMemtableBytes)
	}
	clk.Go("adoc.tuner", t.loop)
	return t
}

// Stop halts the loop after its current epoch.
func (t *Tuner) Stop() {
	t.closed = true
}

// Stats returns the controller's counters.
func (t *Tuner) Stats() Stats {
	return t.stats
}

func (t *Tuner) loop(r *vclock.Runner) {
	for {
		r.Sleep(t.opt.Period)
		if t.closed {
			return
		}
		t.epoch()
	}
}

// epoch is one tuning decision: classify the overflow source and adjust
// the matching knob, stepping back down after sustained calm.
func (t *Tuner) epoch() {
	h := t.db.Health()
	t.stats.Epochs++

	compactionPressure := h.L0Files >= 8 || h.SlowdownLikely || h.Stalled
	flushPressure := h.ImmutableMemtables > 0 && (h.Stalled || h.SlowdownLikely)

	switch {
	case compactionPressure:
		// Data overflow between L0 and deeper levels: add a compaction
		// thread (ADOC's primary move, and the source of its higher host
		// CPU use).
		t.calm = 0
		cur := t.db.CompactionThreads()
		if cur < t.opt.MaxThreads {
			t.db.SetCompactionThreads(cur + 1)
			t.stats.ThreadIncreases++
		} else if flushPressure {
			t.growBatch()
		}
	case flushPressure:
		// Overflow between memtable and flush: grow the batch so bursts
		// coalesce.
		t.calm = 0
		t.growBatch()
	default:
		t.calm++
		calmEnough := t.calm >= t.opt.CalmEpochs
		if calmEnough {
			t.stepDown()
			t.calm = 0
		}
	}
}

func (t *Tuner) growBatch() {
	if t.opt.MaxMemtableBytes <= 0 {
		return
	}
	cur := t.db.MemtableSize()
	next := cur + cur/8
	if next > t.opt.MaxMemtableBytes {
		next = t.opt.MaxMemtableBytes
	}
	if next != cur {
		t.db.SetMemtableSize(next)
		t.stats.BatchIncreases++
	}
}

func (t *Tuner) stepDown() {
	cur := t.db.CompactionThreads()
	if cur > t.opt.MinThreads {
		t.db.SetCompactionThreads(cur - 1)
		t.stats.ThreadDecreases++
	}
	if t.opt.BaseMemtableBytes > 0 {
		mb := t.db.MemtableSize()
		if mb > t.opt.BaseMemtableBytes {
			next := mb - mb/5
			if next < t.opt.BaseMemtableBytes {
				next = t.opt.BaseMemtableBytes
			}
			t.db.SetMemtableSize(next)
			t.stats.BatchDecreases++
		}
	}
}
