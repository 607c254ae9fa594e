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
	"bytes"
	"errors"
	"slices"
	"time"

	"kvaccel/internal/faults"
	"kvaccel/internal/hotring"
	"kvaccel/internal/lsm"
	"kvaccel/internal/memtable"
	"kvaccel/internal/metrics"
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
	// The front cache's counters (all zero when the cache is disabled),
	// read under their own names: FrontCacheHits, FrontCacheHitRate() ….
	hotring.Stats
}

// Add returns the field-wise sum of s and o. The sharded front-end uses
// it to aggregate per-shard counters into one system-wide view.
func (s Stats) Add(o Stats) Stats { return metrics.Sum(s, o) }

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
	// found values only — never tombstones or misses — and every
	// acknowledged write goes through it: a point put refreshes a resident
	// entry, a delete, a batch or a failed write drops it, and the
	// generation guard keeps reads that overlapped a write from filling
	// (see internal/hotring).
	front *hotring.Cache
	// frontWriteEnd closes a point write's front-cache token: always
	// (*hotring.Cache).EndWrite, a field only so that a test can swap in
	// a write end that skips the token check and show the check is needed.
	frontWriteEnd func(c *hotring.Cache, key, value []byte, token uint64)

	// gate serializes rollback chunk merges against foreground writes:
	// writers hold one unit, a rollback chunk holds all of them. This is
	// the isolation the paper's Controller provides between the two LSMs
	// (§V-G).
	gate *vclock.Semaphore

	rollingBack  bool
	lastRedirect vclock.Time // the last redirected write
	// superseding holds the keys whose supersede markers are on their way
	// to the device: views of the writers' keys, which stay put while the
	// writers wait. The device orders commands in flight as it likes, so a
	// redirected pair of such a key could land before the marker and be
	// hidden by it: redirect sends those writes to the Main-LSM.
	superseding [][]byte
	// devFull says the device refused a redirect with
	// faults.ErrCapacityExceeded: writes take the Main-LSM path, and the
	// Rollback Manager drains at its next chance, until a drain resets
	// the device.
	devFull bool
	closed  bool
	closeEv *vclock.Event // signals the rollback runner to drain and exit

	// stats holds the counters Stats returns, but for the front cache's,
	// which Stats reads from the cache.
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
		clk:           clk,
		opt:           opt,
		main:          main,
		dev:           dev,
		meta:          NewMetadataManager(),
		gate:          vclock.NewSemaphore(gateUnits, "kvaccel.gate"),
		closeEv:       vclock.NewEvent("kvaccel.close"),
		front:         hotring.New(opt.FrontCacheBytes, 0),
		frontWriteEnd: (*hotring.Cache).EndWrite,
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
	s.Stats = db.front.Stats()
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
	if db.rollingBack || db.devFull {
		return false
	}
	if db.opt.StallFailover {
		return db.det.StallNow()
	}
	return db.det.StallLikely()
}

// Put writes a key-value pair through the Controller.
func (db *DB) Put(r *vclock.Runner, key, value []byte) error {
	_, err := db.writePoint(r, memtable.KindPut, key, value)
	return err
}

// PutEx is Put, additionally reporting whether the write took the
// redirect path. The crash-torture oracle needs the path: an
// acknowledged redirected write is durable immediately (the Dev-LSM is
// power-loss-protected), while a normal-path write is durable only
// after the next Flush barrier.
func (db *DB) PutEx(r *vclock.Runner, key, value []byte) (redirected bool, err error) {
	return db.writePoint(r, memtable.KindPut, key, value)
}

// Delete writes a tombstone through the Controller; redirected deletes
// become Dev-LSM tombstones that the rollback later applies.
func (db *DB) Delete(r *vclock.Runner, key []byte) error {
	_, err := db.writePoint(r, memtable.KindDelete, key, nil)
	return err
}

// writePoint commits one record under a put span, which opens before the
// write gate so it covers the wait for a rollback chunk. The record goes
// through the front cache: its token is taken before the commit, and the
// write end after it refreshes a resident entry with the stored value —
// whichever route the write took, since a Dev-LSM copy is the newest
// version and a rollback merges the identical bytes — or drops it for a
// delete or a failed write.
func (db *DB) writePoint(r *vclock.Runner, kind memtable.Kind, key, value []byte) (redirected bool, err error) {
	if db.closed {
		return false, ErrClosed
	}
	sp := db.opt.Trace.Begin(r, trace.PhasePut, "put")
	db.gate.Acquire(r, 1)
	token := db.front.BeginWrite(key)
	redirected, err = db.commit(r, &write{kind: kind, key: key, value: value, n: 1, spans: &pointSpans})
	stored := value
	if err != nil || kind == memtable.KindDelete {
		stored = nil
	}
	db.frontWriteEnd(db.front, key, stored, token)
	db.gate.Release(1)
	var arg int64
	if redirected {
		arg = 1
	}
	sp.EndArg(r, arg)
	return redirected, err
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
	_, err := db.commit(r, &write{b: b, n: int64(b.Len()), spans: &batchSpans})
	// A batch's keys leave the front cache: each takes a write token once
	// the batch has landed and ends it storing nothing, which drops a
	// resident entry and turns away any fill that overlapped the batch.
	if db.front != nil {
		b.Ops(func(_ memtable.Kind, key, _ []byte) {
			db.front.EndWrite(key, nil, db.front.BeginWrite(key))
		})
	}
	return err
}

// A write is what the Controller commits: one record (kind, key, value),
// or the batch b. commit routes both alike; only the commands that carry
// a write to the device or the Main-LSM, and the spans that name its
// routes, differ by shape.
type write struct {
	b          *lsm.Batch
	kind       memtable.Kind
	key, value []byte
	n          int64 // records carried
	spans      *spanNames
	entries    []memtable.Entry // b's records as one compound command, built once
}

// spanNames are the redirect-phase spans a write shape opens on each
// route. A batch's supersede markers go out inside its write-batch span.
type spanNames struct{ redirect, failover, supersede string }

var pointSpans = spanNames{"redirect-put", "failover-put", "supersede-put"}
var batchSpans = spanNames{"redirect-batch", "failover-batch", ""}

// keys visits the keys w carries, in order.
func (w *write) keys(fn func(key []byte)) {
	if w.b == nil {
		fn(w.key)
		return
	}
	w.b.Ops(func(_ memtable.Kind, key, _ []byte) { fn(key) })
}

// commit is the Controller's write path (§V-C), run under the write gate.
// While a stall is detected the write is redirected to the Dev-LSM. A
// device command that fails even after retries falls through to the
// normal path — the Main-LSM is stalled, not broken. With StallFailover
// the normal path's first attempt is non-blocking: a write that would
// park in a hard stall comes back with ErrWouldStall and fails over to
// the Dev-LSM, so a stall that begins between two Detector samples still
// never blocks a writer. A rollback in flight suspends the failover for
// the same reason it suspends shouldRedirect. If the device refuses the
// failover too, the Main-LSM is the only home left: the write takes the
// blocking path and waits the stall out. The front cache is the
// caller's: writePoint and WriteBatch close their keys' write tokens
// after commit returns.
func (db *DB) commit(r *vclock.Runner, w *write) (redirected bool, err error) {
	if db.shouldRedirect() && db.redirect(r, w, w.spans.redirect) {
		return true, nil
	}
	err = db.mainWrite(r, w, db.opt.StallFailover && !db.rollingBack && !db.devFull)
	if errors.Is(err, lsm.ErrWouldStall) {
		if db.redirect(r, w, w.spans.failover) {
			db.stats.WouldStallRedirects += w.n
			return true, nil
		}
		err = db.mainWrite(r, w, false)
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
	w.keys(func(key []byte) {
		if !db.meta.Remove(key) {
			return
		}
		var rsp trace.Span
		if w.spans.supersede != "" {
			rsp = db.opt.Trace.Begin(r, trace.PhaseRedirect, w.spans.supersede)
		}
		db.superseding = append(db.superseding, key)
		_ = db.devPut(r, memtable.KindSupersede, key, nil)
		i := slices.IndexFunc(db.superseding, func(k []byte) bool { return bytes.Equal(k, key) })
		db.superseding = slices.Delete(db.superseding, i, i+1)
		rsp.End(r)
	})
	db.stats.NormalPuts += w.n
	return false, nil
}

// redirect buffers w in the Dev-LSM under a span named name and, if the
// device took it, records where its keys' newest versions now live. A
// write with a key whose supersede marker is still on its way to the
// device is not redirected.
func (db *DB) redirect(r *vclock.Runner, w *write, name string) bool {
	if len(db.superseding) > 0 {
		pending := false
		w.keys(func(key []byte) {
			pending = pending || slices.ContainsFunc(db.superseding, func(k []byte) bool { return bytes.Equal(k, key) })
		})
		if pending {
			return false
		}
	}
	rsp := db.opt.Trace.Begin(r, trace.PhaseRedirect, name)
	err := db.devWrite(r, w)
	rsp.End(r)
	if err != nil {
		db.devFull = db.devFull || errors.Is(err, faults.ErrCapacityExceeded)
		return false
	}
	w.keys(db.meta.Insert)
	db.stats.RedirectedPuts += w.n
	db.lastRedirect = r.Now()
	return true
}

// devWrite sends w to the Dev-LSM: one record as KV_PUT, a batch as one
// KV_PUT_COMPOUND. The compound command is atomic device-side: on
// failure none of the batch landed, so falling through to the Main-LSM
// is a clean re-commit, not a duplicate.
func (db *DB) devWrite(r *vclock.Runner, w *write) error {
	if w.b == nil {
		return db.devPut(r, w.kind, w.key, w.value)
	}
	if w.entries == nil {
		w.entries = make([]memtable.Entry, 0, w.b.Len())
		w.b.Ops(func(kind memtable.Kind, key, value []byte) {
			w.entries = append(w.entries, memtable.Entry{Kind: kind, Key: key, Value: value})
		})
	}
	return db.devPutCompound(r, w.entries)
}

// mainWrite commits w to the Main-LSM, non-blocking when noStall is set.
func (db *DB) mainWrite(r *vclock.Runner, w *write, noStall bool) error {
	wo := lsm.WriteOptions{NoStallWait: noStall}
	switch {
	case w.b != nil:
		return db.main.WriteWith(r, wo, w.b)
	case w.kind == memtable.KindDelete:
		return db.main.DeleteWith(r, wo, w.key)
	}
	return db.main.PutWith(r, wo, w.key, w.value)
}

// Get reads a key through the Controller (§V-C Read Path), layered:
// the hot-key front cache answers first, then the Metadata Manager
// picks the LSM holding the newest version. A hit is current: every
// acknowledged write refreshed or dropped the key's entry. A miss
// snapshots the cache's generation token before either LSM is
// consulted, so the fill after the read cannot install a value a write
// that overlapped the read has superseded.
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

// Read is a point read a kernel task steps through DB.GetStep: Key is the
// key to read, and once a step reports the read done, Value, OK and Err
// are what Get would have returned.
type Read struct {
	lsm.Read
	db   *DB  // the DB whose Get runs in the read's call (getCall)
	main bool // the read is in the Main-LSM's stepped read
}

// GetStep is Get as a stepped primitive (see vclock.Clock.GoTask), as
// lsm.DB.GetStep is lsm.DB.Get: a key the Main-LSM alone answers, with no
// front cache and no tracer, takes the Main-LSM's stepped read; anything
// else — a closed DB, a key the Dev-LSM holds — runs Get in a call.
func (db *DB) GetStep(r *vclock.Runner, rd *Read) (done bool) {
	switch {
	case rd.db != nil: // the call has returned
		rd.db = nil
		return true
	case rd.main: // stepping the Main-LSM's read
	case db.closed || db.front != nil || db.opt.Trace != nil || db.meta.Contains(rd.Key):
		rd.db = db
		r.Call(getCall, rd)
		return false
	default:
		db.stats.Gets++
		db.stats.MainGets++
		rd.main = true
	}
	if !db.main.GetStep(r, &rd.Read) {
		return false
	}
	rd.main = false
	return true
}

func getCall(r *vclock.Runner, rd any) {
	g := rd.(*Read)
	g.Value, g.OK, g.Err = g.db.Get(r, g.Key)
}

// fill offers a value read below the front cache to it and returns what
// Get should hand out: the cache's copy when it took one, which pins only
// itself, else v — the fill was rejected, declined or too large — which may
// pin a whole value-log segment or table image.
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
