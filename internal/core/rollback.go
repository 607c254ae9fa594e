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
		// interferes with nothing.
		h := db.det.Health()
		if h.ActiveCompactions > 0 || h.QueuedFlushes > 0 {
			return false
		}
		quiet := r.Now().Sub(vclock.Time(db.lastRedirect.Load()))
		return quiet >= db.opt.LazyQuietPeriod
	default:
		return false
	}
}

// RollbackNow drains the Dev-LSM into the Main-LSM using the in-device
// iterator-based bulky range scan (§V-E): the device serializes its
// entire contents, DMAs them in 512 KiB chunks, and the host merges each
// chunk into the Main-LSM; a device Reset completes the operation.
//
// Crash safety hangs on two orderings here. First, the Main-LSM is
// flushed before the device Reset: redirected pairs are durable on the
// device, so erasing them while their Main-LSM copies sit in an
// unsynced WAL would turn a power cut into data loss. Second, metadata
// entries are cleared only after the Reset commits: until then the
// device copy is still the one a normal-path overwrite must supersede.
// A scan or flush error aborts without resetting — the pairs stay on
// the device and the next rollback (or a post-crash Recover) replays
// them; the merge is idempotent, so a partial drain costs nothing but
// repeated work.
func (db *DB) RollbackNow(r *vclock.Runner) error {
	if db.rollingBack.Swap(true) {
		return nil // already in progress
	}
	defer db.rollingBack.Store(false)
	var pairs int64
	rbsp := db.opt.Trace.Begin(r, trace.PhaseRollback, "rollback")
	defer func() { rbsp.EndArg(r, pairs) }()

	// Barrier: a writer that read shouldRedirect() before the flag
	// flipped may still be mid-devPut; if its pair landed after the
	// device serialized the scan, the Reset below would erase an
	// acknowledged write. Draining the gate once waits those writers
	// out, and every writer arriving later sees rollingBack and takes
	// the normal path.
	db.gate.Acquire(r, gateUnits)
	db.gate.Release(gateUnits)

	start := r.Now()
	// The keys merged, back to back in one arena: key i is
	// merged[ends[i-1]:ends[i]].
	var merged []byte
	var ends []int
	// One batch for the whole rollback, Reset after every merge: its arena
	// grows once, to the largest merge, and goes when the rollback returns.
	var b lsm.Batch
	flush := func() {
		if b.Len() > 0 {
			_ = db.main.Write(r, &b)
			b.Reset()
		}
	}
	ssp := db.opt.Trace.Begin(r, trace.PhaseRollbackScan, "rollback-scan")
	scanErr := db.dev.KVBulkScan(r, func(entries []memtable.Entry) {
		// Each chunk merges under the write gate, serializing against
		// foreground writes so a concurrent overwrite cannot be clobbered
		// by an older rolled-back version.
		db.gate.Acquire(r, gateUnits)
		for i := range entries {
			e := &entries[i]
			if e.Kind == memtable.KindSupersede || !db.meta.Contains(e.Key) {
				// A normal-path write superseded this pair after it was
				// redirected; the Main-LSM already holds the newest
				// version.
				continue
			}
			if e.Kind == memtable.KindDelete {
				b.Delete(e.Key)
			} else {
				b.Put(e.Key, e.Value)
			}
			if b.Len() >= rollbackMergeBatch {
				flush()
			}
			merged = append(merged, e.Key...)
			ends = append(ends, len(merged))
			pairs++
		}
		flush()
		db.gate.Release(gateUnits)
	})
	ssp.EndArg(r, pairs)
	if scanErr != nil {
		return scanErr
	}
	// Durability barrier before the erase: the rolled-back pairs must
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
	from := 0
	for _, to := range ends {
		db.meta.Remove(merged[from:to])
		from = to
	}
	db.rollbacks.Add(1)
	db.rollbackPairs.Add(pairs)
	db.rollbackNS.Add(int64(r.Now().Sub(start)))
	return nil
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
// every buffered pair unconditionally.
//
// Like RollbackNow, Recover flushes the Main-LSM before the device
// Reset and aborts without resetting on a scan or flush error; a crash
// (or fault) at any point leaves the pairs on the device, and a second
// Recover replays them idempotently.
func (db *DB) Recover(r *vclock.Runner) error {
	start := r.Now()
	if db.rollingBack.Swap(true) {
		return nil
	}
	defer db.rollingBack.Store(false)
	var pairs int64
	rsp := db.opt.Trace.Begin(r, trace.PhaseRecovery, "recovery")
	defer func() { rsp.EndArg(r, pairs) }()
	// Same in-flight-writer barrier as RollbackNow; Recover usually runs
	// before writers start, but nothing enforces that.
	db.gate.Acquire(r, gateUnits)
	db.gate.Release(gateUnits)
	var b lsm.Batch // as in RollbackNow: one arena for the whole recovery
	flush := func() {
		if b.Len() > 0 {
			_ = db.main.Write(r, &b)
			b.Reset()
		}
	}
	scanErr := db.dev.KVBulkScan(r, func(entries []memtable.Entry) {
		db.gate.Acquire(r, gateUnits)
		for i := range entries {
			e := &entries[i]
			switch e.Kind {
			case memtable.KindSupersede:
				// The Main-LSM already holds a newer version (written
				// through the normal path before the crash): skip.
			case memtable.KindDelete:
				b.Delete(e.Key)
				pairs++
			default:
				b.Put(e.Key, e.Value)
				pairs++
			}
			if b.Len() >= rollbackMergeBatch {
				flush()
			}
			db.meta.Remove(e.Key)
		}
		flush()
		db.gate.Release(gateUnits)
	})
	if scanErr != nil {
		return scanErr
	}
	if err := db.main.Flush(r); err != nil {
		return err
	}
	if err := db.devReset(r); err != nil {
		return err
	}
	// The unconditional replay can resurrect a stale pair whose supersede
	// marker never landed (the documented fault hazard, DESIGN.md §9);
	// drop the whole front cache so it cannot disagree with the merged
	// view either way.
	db.front.InvalidateAll()
	db.recoveries.Add(1)
	db.rollbackPairs.Add(pairs)
	db.recoveryNS.Add(int64(r.Now().Sub(start)))
	return nil
}
