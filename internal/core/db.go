// Package core implements KVACCEL (§V): the host-SSD co-design that
// bypasses Main-LSM write stalls by redirecting writes over the dual-
// interface SSD's key-value interface into the Dev-LSM, then rolling them
// back into the Main-LSM when the stall clears.
//
// The four software modules of Figure 7(b) map directly onto this
// package: Detector (detector.go), Controller (the Put/Get/Delete paths
// below), Metadata Manager (metadata.go), and Rollback Manager
// (rollback.go). The dual-LSM range query of Figure 10 is iterator.go.
package core

import (
	"errors"
	"time"

	"kvaccel/internal/hotring"
	"kvaccel/internal/lsm"
	"kvaccel/internal/memtable"
	"kvaccel/internal/trace"
	"kvaccel/internal/vclock"
)

// ErrClosed is returned by operations on a closed DB.
var ErrClosed = errors.New("kvaccel: database closed")

// RollbackScheme selects when the Rollback Manager drains the Dev-LSM
// (§V-E "Rollback Scheduling").
type RollbackScheme int

const (
	// RollbackDisabled never rolls back automatically; callers drain with
	// RollbackNow after the workload (the paper's workload-A setup).
	RollbackDisabled RollbackScheme = iota
	// RollbackLazy waits until the engine is quiet: no stall pressure, no
	// running compactions, and no recent redirection. Best for
	// write-intensive workloads.
	RollbackLazy
	// RollbackEager drains as soon as no stall is present, trading some
	// write bandwidth for faster reads from the Main-LSM. Best for
	// read-heavy mixes.
	RollbackEager
)

func (s RollbackScheme) String() string {
	switch s {
	case RollbackDisabled:
		return "disabled"
	case RollbackLazy:
		return "lazy"
	case RollbackEager:
		return "eager"
	}
	return "unknown"
}

// Options configures KVACCEL's software modules.
type Options struct {
	// DetectorPeriod is how often the Detector and Rollback Manager
	// refresh (0.1 s in the paper).
	DetectorPeriod time.Duration
	// Rollback selects the scheduling scheme.
	Rollback RollbackScheme
	// LazyQuietPeriod is how long redirection must have been inactive
	// before a lazy rollback fires.
	LazyQuietPeriod time.Duration
	// StallFailover makes the Controller's normal-path write attempt
	// non-blocking (lsm.WriteOptions.NoStallWait): when the Main-LSM
	// answers ErrWouldStall, the write is redirected to the Dev-LSM
	// immediately instead of parking behind the flush or compaction
	// backlog. It closes the Detector's polling gap — a hard stall that
	// begins between two detector samples still never blocks a writer.
	StallFailover bool
	// Trace, when non-nil, records causal spans for the controller's
	// put/get/redirect paths, the rollback drain, recovery, and the
	// detector's stall-signal transitions. Nil disables tracing.
	Trace *trace.Tracer
	// FrontCacheBytes sizes the HotRing-style hot-key front cache that
	// answers reads before either LSM is consulted. 0 disables it (the
	// default: the cache is an opt-in read accelerator, not part of the
	// paper's §V design).
	FrontCacheBytes int64
}

// DefaultOptions mirrors the paper's implementation constants.
func DefaultOptions() Options {
	return Options{
		DetectorPeriod:  100 * time.Millisecond,
		Rollback:        RollbackLazy,
		LazyQuietPeriod: time.Second,
	}
}

// Stats are KVACCEL's cumulative counters.
type Stats struct {
	NormalPuts     int64
	RedirectedPuts int64
	// WouldStallRedirects counts redirected writes that took the path via
	// StallFailover — the Main-LSM refused admission with ErrWouldStall —
	// rather than via the Detector's stall signal. Included in
	// RedirectedPuts.
	WouldStallRedirects int64
	// Gets counts every Controller read. Each one is answered by exactly
	// one layer, so Gets == FrontCacheHits + DevServed + MainGets — the
	// per-source attribution invariant the bench asserts.
	Gets     int64
	MainGets int64
	// DevGets counts Dev-LSM lookup attempts (metadata said the newest
	// version may be buffered there); DevServed counts the subset the
	// Dev-LSM actually answered — a miss or superseded pair falls through
	// to MainGets.
	DevGets       int64
	DevServed     int64
	Rollbacks     int64
	RollbackPairs int64
	RollbackTime  time.Duration
	Recoveries    int64
	RecoveryTime  time.Duration
	// DevErrors counts device command errors observed (before retries),
	// DevRetries the retries issued, and DevFailed the commands that
	// failed after exhausting the retry policy.
	DevErrors  int64
	DevRetries int64
	DevFailed  int64
	// FrontCache mirrors the hot-key front cache's counters (all zero
	// when the cache is disabled).
	FrontCacheHits          int64
	FrontCacheMisses        int64
	FrontCacheFills         int64
	FrontCacheRejected      int64 // fills dropped by the generation guard
	FrontCacheInvalidations int64
	FrontCacheEvictions     int64
	FrontCacheHeadMoves     int64
	FrontCacheUsed          int64
	FrontCacheEntries       int64
}

// FrontCacheHitRate returns the front cache's hit ratio over all
// Controller reads issued while it was enabled.
func (s Stats) FrontCacheHitRate() float64 {
	if s.FrontCacheHits+s.FrontCacheMisses == 0 {
		return 0
	}
	return float64(s.FrontCacheHits) / float64(s.FrontCacheHits+s.FrontCacheMisses)
}

// Add returns the field-wise sum of s and o. The sharded front-end uses
// it to aggregate per-shard counters into one system-wide view.
func (s Stats) Add(o Stats) Stats {
	s.NormalPuts += o.NormalPuts
	s.RedirectedPuts += o.RedirectedPuts
	s.WouldStallRedirects += o.WouldStallRedirects
	s.Gets += o.Gets
	s.MainGets += o.MainGets
	s.DevGets += o.DevGets
	s.DevServed += o.DevServed
	s.Rollbacks += o.Rollbacks
	s.RollbackPairs += o.RollbackPairs
	s.RollbackTime += o.RollbackTime
	s.Recoveries += o.Recoveries
	s.RecoveryTime += o.RecoveryTime
	s.DevErrors += o.DevErrors
	s.DevRetries += o.DevRetries
	s.DevFailed += o.DevFailed
	s.FrontCacheHits += o.FrontCacheHits
	s.FrontCacheMisses += o.FrontCacheMisses
	s.FrontCacheFills += o.FrontCacheFills
	s.FrontCacheRejected += o.FrontCacheRejected
	s.FrontCacheInvalidations += o.FrontCacheInvalidations
	s.FrontCacheEvictions += o.FrontCacheEvictions
	s.FrontCacheHeadMoves += o.FrontCacheHeadMoves
	s.FrontCacheUsed += o.FrontCacheUsed
	s.FrontCacheEntries += o.FrontCacheEntries
	return s
}

// DB is a KVACCEL instance: a Main-LSM on the block interface plus a
// Dev-LSM on the KV interface of the same dual-interface SSD.
type DB struct {
	clk  *vclock.Clock
	opt  Options
	main MainEngine
	dev  KVDevice
	meta *MetadataManager
	det  *Detector

	// front is the hot-key front cache (nil when disabled). It caches
	// found values only — never tombstones or misses — and is kept
	// coherent by per-key invalidation on every write acknowledgment plus
	// the generation guard on fills (see internal/hotring).
	front *hotring.Cache

	// gate serializes rollback chunk merges against foreground writes:
	// writers hold one unit, a rollback chunk holds all of them. This is
	// the isolation the paper's Controller provides between the two LSMs
	// (§V-G).
	gate *vclock.Semaphore

	rollingBack  bool
	lastRedirect vclock.Time // the last redirected write
	closed       bool
	closeEv      *vclock.Event // signals the rollback runner to drain and exit

	// stats holds the counters Stats returns; the front cache's are
	// filled in there.
	stats Stats
}

const gateUnits = 1 << 20 // effectively "all writers"

// Open assembles KVACCEL over an already-open main engine and KV device
// view, and starts the Detector and Rollback Manager runners. The
// concrete stack (lsm.Open, ssd.New) is the caller's business — this
// package only sees the MainEngine and KVDevice contracts.
func Open(clk *vclock.Clock, main MainEngine, dev KVDevice, opt Options) *DB {
	if opt.DetectorPeriod <= 0 {
		panic("core: Options needs DetectorPeriod > 0")
	}
	db := &DB{
		clk:     clk,
		opt:     opt,
		main:    main,
		dev:     dev,
		meta:    NewMetadataManager(),
		gate:    vclock.NewSemaphore(gateUnits, "kvaccel.gate"),
		closeEv: vclock.NewEvent("kvaccel.close"),
		front:   hotring.New(opt.FrontCacheBytes, 0),
	}
	db.det = NewDetector(main, opt.DetectorPeriod)
	db.det.SetTracer(opt.Trace)
	db.det.Start(clk)
	db.startRollbackManager()
	return db
}

// Options returns the options the controller runs with.
func (db *DB) Options() Options { return db.opt }

// Main exposes the underlying main engine (stats, health).
func (db *DB) Main() MainEngine { return db.main }

// Device exposes the KV-interface view KVACCEL buffers into.
func (db *DB) Device() KVDevice { return db.dev }

// Metadata exposes the metadata manager (tests, Table VI bench).
func (db *DB) Metadata() *MetadataManager { return db.meta }

// Detector exposes the detector (tests, Table VI bench).
func (db *DB) Detector() *Detector { return db.det }

// FrontCache exposes the hot-key front cache (nil when disabled).
func (db *DB) FrontCache() *hotring.Cache { return db.front }

// Stats returns a snapshot of KVACCEL's counters.
func (db *DB) Stats() Stats {
	s := db.stats
	fc := db.front.Stats()
	s.FrontCacheHits = fc.Hits
	s.FrontCacheMisses = fc.Misses
	s.FrontCacheFills = fc.Fills
	s.FrontCacheRejected = fc.Rejected
	s.FrontCacheInvalidations = fc.Invalidations
	s.FrontCacheEvictions = fc.Evictions
	s.FrontCacheHeadMoves = fc.HeadMoves
	s.FrontCacheUsed = fc.Used
	s.FrontCacheEntries = fc.Entries
	return s
}

// Close stops accepting writes and signals the background runners to
// shut down promptly (no waiting out the current detector period). The
// rollback runner performs a final drain of any Dev-LSM entries still
// buffered — so a clean close loses nothing — and then closes the
// Main-LSM; with RollbackDisabled the drain is skipped and the buffered
// entries stay in NAND for the next open's Recover, as the restart
// tests rely on. Close returns immediately; the drain completes before
// the simulation's Wait returns.
func (db *DB) Close() {
	if db.closed {
		return
	}
	db.closed = true
	db.det.Stop()
	db.closeEv.Set()
}

// shouldRedirect is the Controller's path decision (§V-C Write Path):
// redirect while a stall is detected, unless a rollback is mid-flight
// (the Dev-LSM must not absorb new writes that the imminent Reset would
// drop). With StallFailover the pre-emptive redirect narrows to the
// Detector's hard-stall sample: the write path itself fails over on
// ErrWouldStall the instant admission would really block, so redirecting
// on the broad predictive signal would only siphon near-stall traffic —
// which group commit can still absorb — onto the slower device path.
func (db *DB) shouldRedirect() bool {
	if db.rollingBack {
		return false
	}
	if db.opt.StallFailover {
		return db.det.StallNow()
	}
	return db.det.StallLikely()
}

// Put writes a key-value pair through the Controller.
func (db *DB) Put(r *vclock.Runner, key, value []byte) error {
	_, err := db.write(r, memtable.KindPut, key, value)
	return err
}

// PutEx is Put, additionally reporting whether the write took the
// redirect path. The crash-torture oracle needs the path: an
// acknowledged redirected write is durable immediately (the Dev-LSM is
// power-loss-protected), while a normal-path write is durable only
// after the next Flush barrier.
func (db *DB) PutEx(r *vclock.Runner, key, value []byte) (redirected bool, err error) {
	return db.write(r, memtable.KindPut, key, value)
}

// Delete writes a tombstone through the Controller; redirected deletes
// become Dev-LSM tombstones that the rollback later applies.
func (db *DB) Delete(r *vclock.Runner, key []byte) error {
	_, err := db.write(r, memtable.KindDelete, key, nil)
	return err
}

func (db *DB) write(r *vclock.Runner, kind memtable.Kind, key, value []byte) (redirected bool, err error) {
	if db.closed {
		return false, ErrClosed
	}
	sp := db.opt.Trace.Begin(r, trace.PhasePut, "put")
	defer func() {
		var arg int64
		if redirected {
			arg = 1
		}
		sp.EndArg(r, arg)
	}()
	db.gate.Acquire(r, 1)
	defer db.gate.Release(1)

	if db.shouldRedirect() {
		// Stall path: buffer in the Dev-LSM, record location metadata.
		// A device command that fails even after retries falls through
		// to the normal path — the Main-LSM is stalled, not broken.
		rsp := db.opt.Trace.Begin(r, trace.PhaseRedirect, "redirect-put")
		perr := db.devPut(r, kind, key, value)
		rsp.End(r)
		if perr == nil {
			db.meta.Insert(key)
			db.front.Invalidate(key)
			db.stats.RedirectedPuts++
			db.lastRedirect = r.Now()
			return true, nil
		}
	}
	// Normal path. With StallFailover the first attempt is non-blocking:
	// a write that would park in a hard stall comes back with
	// ErrWouldStall and fails over to the Dev-LSM, so a stall that begins
	// between two Detector samples still never blocks a writer. A
	// rollback in flight suspends the failover for the same reason it
	// suspends shouldRedirect.
	err = db.mainWrite(r, kind, key, value, db.opt.StallFailover && !db.rollingBack)
	if errors.Is(err, lsm.ErrWouldStall) {
		rsp := db.opt.Trace.Begin(r, trace.PhaseRedirect, "failover-put")
		perr := db.devPut(r, kind, key, value)
		rsp.End(r)
		if perr == nil {
			db.meta.Insert(key)
			db.front.Invalidate(key)
			db.stats.RedirectedPuts++
			db.stats.WouldStallRedirects++
			db.lastRedirect = r.Now()
			return true, nil
		}
		// The device refused too; the Main-LSM is the only home left —
		// take the blocking path and wait the stall out.
		err = db.mainWrite(r, kind, key, value, false)
	}
	if err != nil {
		return false, err
	}
	// §V-C Write Path (3-1): the newest version now lives in Main-LSM.
	// If a buffered copy exists, mark it superseded on the device so a
	// post-crash recovery (which replays every buffered pair, §VI-D)
	// cannot resurrect the stale version over this newer one. A marker
	// that fails to land leaves a stale pair that recovery may replay;
	// the fault model documents that hazard (DESIGN.md §9) — the
	// guarantee for this key now follows the normal-path regime.
	db.front.Invalidate(key)
	if db.meta.Remove(key) {
		rsp := db.opt.Trace.Begin(r, trace.PhaseRedirect, "supersede-put")
		_ = db.devPut(r, memtable.KindSupersede, key, nil)
		rsp.End(r)
	}
	db.stats.NormalPuts++
	return false, nil
}

// mainWrite issues one point write to the Main-LSM, non-blocking when
// noStall is set.
func (db *DB) mainWrite(r *vclock.Runner, kind memtable.Kind, key, value []byte, noStall bool) error {
	wo := lsm.WriteOptions{NoStallWait: noStall}
	if kind == memtable.KindDelete {
		return db.main.DeleteWith(r, wo, key)
	}
	return db.main.PutWith(r, wo, key, value)
}

// WriteBatch commits a batch atomically through the Controller: on the
// normal path via the Main-LSM's single-WAL-record commit, on the stall
// path via one compound KV command (§IV's buffered I/O [33]).
func (db *DB) WriteBatch(r *vclock.Runner, b *lsm.Batch) error {
	if db.closed {
		return ErrClosed
	}
	if b.Len() == 0 {
		return nil
	}
	db.gate.Acquire(r, 1)
	defer db.gate.Release(1)

	sp := db.opt.Trace.Begin(r, trace.PhaseBatch, "write-batch")
	defer sp.End(r)

	if db.shouldRedirect() {
		entries := make([]memtable.Entry, 0, b.Len())
		b.Ops(func(kind memtable.Kind, key, value []byte) {
			entries = append(entries, memtable.Entry{Kind: kind, Key: key, Value: value})
		})
		// The compound command is atomic device-side: on failure none of
		// the batch landed, so falling through to the Main-LSM path is a
		// clean re-commit, not a duplicate.
		rsp := db.opt.Trace.Begin(r, trace.PhaseRedirect, "redirect-batch")
		cerr := db.devPutCompound(r, entries)
		rsp.End(r)
		if cerr == nil {
			b.Ops(func(_ memtable.Kind, key, _ []byte) {
				db.meta.Insert(key)
				db.front.Invalidate(key)
			})
			db.stats.RedirectedPuts += int64(b.Len())
			db.lastRedirect = r.Now()
			return nil
		}
	}
	wo := lsm.WriteOptions{NoStallWait: db.opt.StallFailover && !db.rollingBack}
	err := db.main.WriteWith(r, wo, b)
	if errors.Is(err, lsm.ErrWouldStall) {
		// Non-blocking admission refused the batch; fail it over as one
		// compound command, same atomicity argument as above.
		entries := make([]memtable.Entry, 0, b.Len())
		b.Ops(func(kind memtable.Kind, key, value []byte) {
			entries = append(entries, memtable.Entry{Kind: kind, Key: key, Value: value})
		})
		rsp := db.opt.Trace.Begin(r, trace.PhaseRedirect, "failover-batch")
		cerr := db.devPutCompound(r, entries)
		rsp.End(r)
		if cerr == nil {
			b.Ops(func(_ memtable.Kind, key, _ []byte) {
				db.meta.Insert(key)
				db.front.Invalidate(key)
			})
			db.stats.RedirectedPuts += int64(b.Len())
			db.stats.WouldStallRedirects += int64(b.Len())
			db.lastRedirect = r.Now()
			return nil
		}
		err = db.main.Write(r, b)
	}
	if err != nil {
		return err
	}
	b.Ops(func(_ memtable.Kind, key, _ []byte) {
		db.front.Invalidate(key)
		if db.meta.Remove(key) {
			_ = db.devPut(r, memtable.KindSupersede, key, nil)
		}
	})
	db.stats.NormalPuts += int64(b.Len())
	return nil
}

// Get reads a key through the Controller (§V-C Read Path), layered:
// the hot-key front cache answers first, then the Metadata Manager
// picks the LSM holding the newest version. A miss in the front cache
// snapshots its generation token before either LSM is consulted, so the
// fill after the read cannot install a value a concurrent write has
// already superseded.
//
// The value is read-only and may alias engine memory. Copy it to modify
// it, or to keep it past its use, since it pins the buffer it points into.
func (db *DB) Get(r *vclock.Runner, key []byte) (value []byte, ok bool, err error) {
	if db.closed {
		return nil, false, ErrClosed
	}
	sp := db.opt.Trace.Begin(r, trace.PhaseGet, "get")
	defer sp.End(r)
	db.stats.Gets++
	var token uint64
	if db.front != nil {
		fsp := db.opt.Trace.Begin(r, trace.PhaseFrontCache, "front-cache")
		if v, hit := db.front.Get(key); hit {
			fsp.EndArg(r, 1)
			return v, true, nil
		}
		token = db.front.BeginRead(key)
		fsp.End(r)
	}
	if db.meta.Contains(key) {
		db.stats.DevGets++
		v, kind, found, derr := db.devGet(r, key)
		if derr == nil && found && kind != memtable.KindSupersede {
			db.stats.DevServed++
			if kind == memtable.KindDelete {
				return nil, false, nil
			}
			// Dev-LSM values are safe to cache: a rollback merges the
			// identical newest version into the Main-LSM, so the cached
			// copy stays correct across the drain.
			return db.fill(key, v, token), true, nil
		}
		// Metadata said Dev-LSM but the pair is gone (rolled back between
		// our check and the device read) or the device failed the read
		// even after retries; fall through to the Main-LSM, which holds
		// the newest durable version the host can still reach.
	}
	db.stats.MainGets++
	value, ok, err = db.main.Get(r, key)
	if err == nil && ok {
		value = db.fill(key, value, token)
	}
	return value, ok, err
}

// fill offers a value read below the front cache to it and returns what
// Get should hand out: the cache's copy when it took one, which pins only
// itself, else v, which may pin a whole value-log segment or table image.
func (db *DB) fill(key, v []byte, token uint64) []byte {
	if c := db.front.FillIfUnchanged(key, v, token); c != nil {
		return c
	}
	return v
}

// Flush drains the Main-LSM memtable (delegates; the Dev-LSM is flushed
// by its own DRAM budget). A nil return is a durability barrier for
// every previously acknowledged normal-path write.
func (db *DB) Flush(r *vclock.Runner) error { return db.main.Flush(r) }

// WaitIdle parks until Main-LSM background work is done.
func (db *DB) WaitIdle(r *vclock.Runner) { db.main.WaitIdle(r) }
