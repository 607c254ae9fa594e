package core

import (
	"kvaccel/internal/lsm"
	"kvaccel/internal/memtable"
	"kvaccel/internal/trace"
	"kvaccel/internal/vclock"
)

// rollbackMergeBatch bounds the atomic batches a rollback (or recovery)
// merges survivors in: one group commit per 256 records instead of one
// per pair, so a drain does not flood the Main-LSM's commit pipeline
// with tens of thousands of singleton groups.
const rollbackMergeBatch = 256

// startRollbackManager launches the Rollback Manager runner (§V-E): it
// receives the Detector's stall reports and triggers rollback at the
// moments its scheme allows. On Close it wakes immediately (not after
// the current period), drains whatever the Dev-LSM still buffers, and
// closes the Main-LSM — the shutdown half of the controller's contract.
func (db *DB) startRollbackManager() {
	db.clk.Go("kvaccel.rollback", func(r *vclock.Runner) {
		for !db.closeEv.WaitFor(r, db.opt.DetectorPeriod) {
			if db.shouldRollback(r) {
				_ = db.RollbackNow(r) // transient failure: retried next period
			}
		}
		// Final drain: flush buffered pairs into the Main-LSM so a clean
		// close loses nothing. RollbackDisabled skips it — those setups
		// (restart tests, recovery experiments) want the pairs left in
		// NAND for Recover to find.
		if db.opt.Rollback != RollbackDisabled && !db.dev.KVEmpty() {
			_ = db.RollbackNow(r) // on failure the pairs stay for Recover
		}
		db.main.Close()
	})
}

// shouldRollback evaluates the scheduling scheme against the detector's
// latest report.
func (db *DB) shouldRollback(r *vclock.Runner) bool {
	if db.dev.KVEmpty() || db.det.StallLikely() {
		return false
	}
	switch db.opt.Rollback {
	case RollbackEager:
		// Eager: as soon as no write stall is present.
		return true
	case RollbackLazy:
		// Lazy: additionally require the engine to be quiet — no running
		// compactions and no redirection for a while — so the rollback
		// interferes with nothing. A full device cannot wait for that:
		// under a steady load the quiet never comes, and until the drain
		// every write takes the Main-LSM path.
		if db.devFull {
			return true
		}
		h := db.det.Health()
		if h.ActiveCompactions > 0 || h.QueuedFlushes > 0 {
			return false
		}
		quiet := r.Now().Sub(db.lastRedirect)
		return quiet >= db.opt.LazyQuietPeriod
	default:
		return false
	}
}

// RollbackNow drains the Dev-LSM into the Main-LSM using the in-device
// iterator-based bulky range scan (§V-E): the device serializes its
// entire contents, DMAs them in 512 KiB chunks, and the host merges each
// chunk into the Main-LSM; a device Reset completes the operation. Only
// the pairs the metadata still tracks merge: a normal-path write that
// superseded a pair after it was redirected already put the newest
// version in the Main-LSM.
func (db *DB) RollbackNow(r *vclock.Runner) error { return db.drain(r, &rollbackPolicy) }

// A drainPolicy is what a rollback and a crash recovery do differently
// around the one drain: which pairs merge, and what the host forgets
// once the device is reset.
type drainPolicy struct {
	phase          trace.Phase
	span, scanSpan string // scanSpan "" opens no span around the scan
	// all merges every pair but the supersede markers and tracks each
	// until the reset, after which the metadata and the front cache are
	// dropped whole (a recovery, whose metadata died with the host).
	// Otherwise only tracked pairs merge, and the reset forgets just
	// their keys (a rollback).
	all bool
}

var rollbackPolicy = drainPolicy{phase: trace.PhaseRollback, span: "rollback", scanSpan: "rollback-scan"}
var recoveryPolicy = drainPolicy{phase: trace.PhaseRecovery, span: "recovery", all: true}

// drain merges the Dev-LSM's pairs into the Main-LSM as p says and
// resets the device.
//
// Crash safety hangs on two orderings here. First, the Main-LSM is
// flushed before the device Reset: redirected pairs are durable on the
// device, so erasing them while their Main-LSM copies sit in an
// unsynced WAL would turn a power cut into data loss. Second, metadata
// entries are cleared only after the Reset commits: until then the
// device copy is still the one a normal-path overwrite must supersede,
// and the one reads and the next drain must find if this one fails.
// A scan, merge or flush error aborts without resetting — the pairs stay
// on the device and the next rollback (or a post-crash Recover) replays
// them; the merge is idempotent, so a partial drain costs nothing but
// repeated work.
func (db *DB) drain(r *vclock.Runner, p *drainPolicy) error {
	if db.rollingBack {
		return nil // already in progress
	}
	db.rollingBack = true
	defer func() { db.rollingBack = false }()
	var pairs int64
	sp := db.opt.Trace.Begin(r, p.phase, p.span)
	defer func() { sp.EndArg(r, pairs) }()

	// Barrier: a writer that read shouldRedirect() before the flag
	// flipped may still be mid-devPut; if its pair landed after the
	// device serialized the scan, the Reset below would erase an
	// acknowledged write. Draining the gate once waits those writers
	// out, and every writer arriving later sees rollingBack and takes
	// the normal path.
	db.gate.Acquire(r, gateUnits)
	db.gate.Release(gateUnits)

	start := r.Now()
	// A rollback's merged keys, back to back in one arena: key i is
	// merged[ends[i-1]:ends[i]].
	var merged []byte
	var ends []int
	// One batch for the whole drain, Reset after every merge: its arena
	// grows once, to the largest merge, and goes when the drain returns.
	var b lsm.Batch
	var mergeErr error
	flush := func() { db.merge(r, &b, &mergeErr) }
	var ssp trace.Span
	if p.scanSpan != "" {
		ssp = db.opt.Trace.Begin(r, trace.PhaseRollbackScan, p.scanSpan)
	}
	scanErr := db.dev.KVBulkScan(r, func(entries []memtable.Entry) {
		// Each chunk merges under the write gate, serializing against
		// foreground writes so a concurrent overwrite cannot be clobbered
		// by an older drained version.
		db.gate.Acquire(r, gateUnits)
		for i := range entries {
			e := &entries[i]
			if e.Kind == memtable.KindSupersede || !p.all && !db.meta.Contains(e.Key) {
				continue
			}
			if e.Kind == memtable.KindDelete {
				b.Delete(e.Key)
			} else {
				b.Put(e.Key, e.Value)
			}
			pairs++
			if b.Len() >= rollbackMergeBatch {
				flush()
			}
			if p.all {
				db.meta.Insert(e.Key)
			} else {
				merged = append(merged, e.Key...)
				ends = append(ends, len(merged))
			}
		}
		flush()
		db.gate.Release(gateUnits)
	})
	ssp.EndArg(r, pairs)
	if scanErr != nil {
		return scanErr
	}
	if mergeErr != nil {
		return mergeErr
	}
	// Durability barrier before the erase: the drained pairs must
	// survive a power cut from the Main-LSM alone once the device's
	// copies are gone.
	if err := db.main.Flush(r); err != nil {
		return err
	}
	// §V-E step 8: reset the Dev-LSM so the next rollback sees only fresh
	// redirected data.
	if err := db.devReset(r); err != nil {
		return err
	}
	db.devFull = false
	db.stats.RollbackPairs += pairs
	if !p.all {
		from := 0
		for _, to := range ends {
			db.meta.Remove(merged[from:to])
			from = to
		}
		db.stats.Rollbacks++
		db.stats.RollbackTime += r.Now().Sub(start)
		return nil
	}
	// The device is empty: nothing it tracked is there any more. The
	// unconditional replay can resurrect a stale pair whose supersede
	// marker never landed (the documented fault hazard, DESIGN.md §9);
	// drop the whole front cache so it cannot disagree with the merged
	// view either way.
	db.meta.Clear()
	db.front.InvalidateAll()
	db.stats.Recoveries++
	db.stats.RecoveryTime += r.Now().Sub(start)
	return nil
}

// merge commits a rollback's or recovery's batch into the Main-LSM and
// resets it, keeping the first error in *first. A failed merge must stop
// the drain before its device reset: the Main-LSM stays writable after a
// failed group commit, so the barrier Flush would succeed and the reset
// would erase the only copy of the pairs the failed batch carried.
func (db *DB) merge(r *vclock.Runner, b *lsm.Batch, first *error) {
	if b.Len() == 0 {
		return
	}
	if err := db.main.WriteWith(r, lsm.WriteOptions{}, b); err != nil && *first == nil {
		*first = err
	}
	b.Reset()
}

// SimulateCrash models the §VI-D failure: the volatile metadata manager's
// hash table is lost, and with it every other host-DRAM structure — the
// front cache included. Dev-LSM contents (non-volatile NAND) survive.
func (db *DB) SimulateCrash() {
	db.meta.Clear()
	db.front.InvalidateAll()
}

// Recover rebuilds a consistent single-database view after a crash by
// rolling back every KV pair stored in the Dev-LSM to the Main-LSM
// (§VI-D). Because the metadata hash table is empty, the merge applies
// every buffered pair but the supersede markers unconditionally, and
// tracks each in the metadata until the reset, so reads and the next
// rollback find a pair a failed recovery left on the device. A second
// Recover replays the pairs idempotently.
func (db *DB) Recover(r *vclock.Runner) error { return db.drain(r, &recoveryPolicy) }
