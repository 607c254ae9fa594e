package lsm

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"kvaccel/internal/encoding"
	"kvaccel/internal/fold"
	"kvaccel/internal/fs"
	"kvaccel/internal/memtable"
	"kvaccel/internal/sstable"
	"kvaccel/internal/vclock"
	"kvaccel/internal/vlog"
	"kvaccel/internal/wal"
)

// The manifest machinery mirrors Figure 1's MANIFEST/CURRENT files: every
// version change (flush or compaction install) persists a snapshot of the
// live file set as MANIFEST-<n>, then atomically points CURRENT at it.
// OpenExisting rebuilds the tree from CURRENT and replays any surviving
// WAL files, which is how the host side of the system restarts.

const currentName = "CURRENT"

const manifestMagic uint32 = 0x4d414e49 // "MANI"

type manifestState struct {
	counter uint64 // last written manifest number
}

// manifestSnapshot is what gets encoded.
type manifestSnapshot struct {
	nextFileNum uint64
	seq         uint64
	files       []manifestFile
	// hasVLog marks a manifest written with value separation enabled;
	// vlogState then carries the segment-id allocator, so a restart never
	// reuses a segment id. Manifests from before the value log simply
	// lack the section.
	hasVLog   bool
	vlogState vlog.ManifestState
}

type manifestFile struct {
	num      uint64
	level    int
	smallest []byte
	largest  []byte
	size     int64
	entries  int
}

// snapshotManifest captures the live file set.
func (db *DB) snapshotManifest() manifestSnapshot {
	snap := manifestSnapshot{nextFileNum: db.nextFileNum, seq: db.seq}
	for l, files := range db.vers.levels {
		for _, f := range files {
			snap.files = append(snap.files, manifestFile{
				num: f.Num, level: l,
				smallest: f.Smallest, largest: f.Largest,
				size: f.Size, entries: f.Entries,
			})
		}
	}
	if db.vlog != nil {
		snap.hasVLog = true
		snap.vlogState = db.vlog.ManifestSnapshot()
	}
	return snap
}

func encodeManifest(s manifestSnapshot) []byte {
	var b []byte
	b = encoding.PutU32(b, manifestMagic)
	b = encoding.PutU64(b, s.nextFileNum)
	b = encoding.PutU64(b, s.seq)
	b = encoding.PutU32(b, uint32(len(s.files)))
	for _, f := range s.files {
		b = encoding.PutU64(b, f.num)
		b = encoding.PutU32(b, uint32(f.level))
		b = encoding.PutUvarint(b, uint64(len(f.smallest)))
		b = append(b, f.smallest...)
		b = encoding.PutUvarint(b, uint64(len(f.largest)))
		b = append(b, f.largest...)
		b = encoding.PutU64(b, uint64(f.size))
		b = encoding.PutU32(b, uint32(f.entries))
	}
	if s.hasVLog {
		b = append(b, 1) // vlog section marker
		b = encoding.PutU32(b, s.vlogState.NextSeg)
	}
	b = encoding.PutU32(b, encoding.Checksum(b))
	return b
}

func decodeManifest(b []byte) (manifestSnapshot, error) {
	var s manifestSnapshot
	if len(b) < 4 {
		return s, encoding.ErrCorrupt
	}
	body, sumBytes := b[:len(b)-4], b[len(b)-4:]
	sum, _, _ := encoding.U32(sumBytes)
	if encoding.Checksum(body) != sum {
		return s, fmt.Errorf("lsm: manifest checksum mismatch")
	}
	magic, rest, err := encoding.U32(body)
	if err != nil || magic != manifestMagic {
		return s, encoding.ErrCorrupt
	}
	if s.nextFileNum, rest, err = encoding.U64(rest); err != nil {
		return s, err
	}
	if s.seq, rest, err = encoding.U64(rest); err != nil {
		return s, err
	}
	n, rest, err := encoding.U32(rest)
	if err != nil {
		return s, err
	}
	for i := uint32(0); i < n; i++ {
		var f manifestFile
		if f.num, rest, err = encoding.U64(rest); err != nil {
			return s, err
		}
		var lvl uint32
		if lvl, rest, err = encoding.U32(rest); err != nil {
			return s, err
		}
		f.level = int(lvl)
		if f.smallest, rest, err = manifestKey(rest); err != nil {
			return s, err
		}
		if f.largest, rest, err = manifestKey(rest); err != nil {
			return s, err
		}
		var sz uint64
		if sz, rest, err = encoding.U64(rest); err != nil {
			return s, err
		}
		f.size = int64(sz)
		var ent uint32
		if ent, rest, err = encoding.U32(rest); err != nil {
			return s, err
		}
		f.entries = int(ent)
		s.files = append(s.files, f)
	}
	if len(rest) > 0 && rest[0] == 1 {
		s.hasVLog = true
		rest = rest[1:]
		if s.vlogState.NextSeg, rest, err = encoding.U32(rest); err != nil {
			return s, err
		}
	}
	if len(rest) > 0 {
		return s, encoding.ErrCorrupt // encodeManifest writes nothing past the sections
	}
	return s, nil
}

// manifestKey reads one length-prefixed key of a manifest into a copy.
// The length must be a minimal varint, as encodeManifest writes it: one
// whose last byte is zero is padded, and would decode to a snapshot that
// encodes to other bytes.
func manifestKey(b []byte) (key, rest []byte, err error) {
	n, rest, err := encoding.Uvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if w := len(b) - len(rest); (w > 1 && b[w-1] == 0) || uint64(len(rest)) < n {
		return nil, nil, encoding.ErrCorrupt
	}
	return append([]byte(nil), rest[:n]...), rest[n:], nil
}

// persistManifest writes a new MANIFEST-<n> and repoints CURRENT.
// Called after every install. A non-nil return means
// CURRENT still points at the previous manifest: the caller must not
// delete anything (WAL, input SSTs) that the previous manifest still
// needs for a restart.
//
// The whole persist is serialized under persistSem and snapshots the
// live file set itself, at its turn. Interleaving two persists is not
// merely wasteful but unsafe: the later writer could remove the
// manifest the earlier writer's CURRENT is about to name (dangling
// CURRENT after a crash), and a caller-captured snapshot could reach
// the media after a newer one, reverting CURRENT to a file set whose
// WALs have already been deleted.
func (db *DB) persistManifest(r *vclock.Runner) error {
	db.persistSem.Acquire(r, 1)
	defer db.persistSem.Release(1)

	snap := db.snapshotManifest()

	db.manifest.counter++
	n := db.manifest.counter

	name := fmt.Sprintf("MANIFEST-%06d", n)
	if err := db.fsys.WriteFile(r, name, fold.Literal(encodeManifest(snap))); err != nil {
		return err
	}
	if err := db.fsys.WriteFile(r, currentName, fold.Literal([]byte(name))); err != nil {
		return err
	}
	if n > 1 {
		old := fmt.Sprintf("MANIFEST-%06d", n-1)
		if db.fsys.Exists(old) {
			_ = db.fsys.Remove(r, old)
		}
	}
	return nil
}

// Reopen restores a DB from fsys's CURRENT manifest and WAL files —
// the restart path of Figure 1's MANIFEST/CURRENT machinery. The
// caller's runner pays the recovery read time, exactly as a restarting
// process would. If no CURRENT exists this is an error; use Open for a
// fresh database.
func Reopen(r *vclock.Runner, clk *vclock.Clock, fsys *fs.FileSystem, opt Options) (*DB, error) {
	if !fsys.Exists(currentName) {
		return nil, fmt.Errorf("lsm: no CURRENT file; nothing to recover")
	}
	cur, err := fsys.ReadFile(r, currentName)
	if err != nil {
		return nil, err
	}
	data, err := fsys.ReadFile(r, strings.TrimSpace(string(cur)))
	if err != nil {
		return nil, fmt.Errorf("lsm: reading manifest: %w", err)
	}
	snap, err := decodeManifest(data)
	if err != nil {
		return nil, err
	}

	db := newDB(clk, fsys, opt)
	db.nextFileNum = snap.nextFileNum
	db.seq = snap.seq
	db.manifest.counter = manifestCounterFrom(string(cur))

	// Reopen every live table.
	for _, mf := range snap.files {
		name := SSTName(mf.num)
		size, err := fsys.Size(name)
		if err != nil {
			return nil, fmt.Errorf("lsm: manifest references missing table %s: %w", name, err)
		}
		rd, err := sstable.Open(r, &fileSource{db: db, name: name, size: size})
		if err != nil {
			return nil, fmt.Errorf("lsm: reopening %s: %w", name, err)
		}
		if mf.level >= db.opt.MaxLevels {
			return nil, fmt.Errorf("lsm: manifest level %d out of range", mf.level)
		}
		db.vers.addFile(&FileMeta{
			Num: mf.num, Level: mf.level,
			Smallest: mf.smallest, Largest: mf.largest,
			Size: mf.size, Entries: mf.entries,
			reader: rd,
			refs:   1, // the version being rebuilt
		})
	}
	db.pending = db.vers.pendingCompactionBytes(&db.opt)

	// Remove orphan tables (written by an install that never reached the
	// manifest before the crash).
	live := make(map[string]bool, len(snap.files))
	for _, mf := range snap.files {
		live[SSTName(mf.num)] = true
	}
	for _, name := range fsys.List() {
		if strings.HasSuffix(name, ".sst") && !live[name] {
			_ = fsys.Remove(r, name)
		}
	}

	// Recover the value log before WAL replay: replayed pointer records
	// are validated against the recovered (torn-tail-truncated) segments.
	// The log is rebuilt whenever the manifest says it existed, segment
	// files survive on disk, or the new options enable separation.
	anyVLogFiles := false
	for _, name := range fsys.List() {
		if _, ok := vlog.ParseSegmentName(name); ok {
			anyVLogFiles = true
			break
		}
	}
	if snap.hasVLog || anyVLogFiles || db.opt.ValueThreshold > 0 {
		vl, verr := vlog.Recover(r, clk, fsys, db.vlogOptions(), snap.vlogState)
		if verr != nil {
			return nil, verr
		}
		db.vlog = vl
	}
	// From here on the vlog's write-back runner is live; an error return
	// must shut it down or it parks forever on a DB no one will ever
	// Close.
	abort := func(err error) (*DB, error) {
		db.closed = true
		if db.vlog != nil {
			db.vlog.Close()
		}
		return nil, err
	}

	// Replay surviving WAL files in file-number order; records beyond the
	// last write-back are gone, as on a real crash.
	var logs []string
	for _, name := range fsys.List() {
		if strings.HasSuffix(name, ".log") {
			logs = append(logs, name)
		}
	}
	sort.Strings(logs)
	// The manifest's nextFileNum predates the crashed process's active
	// WAL (log creation doesn't persist a manifest), so a surviving log
	// may carry a number >= snap.nextFileNum. Bump past them all, or
	// newWAL() below would hand out a colliding name: the new active log
	// would append into the surviving file, and the deferred log removal
	// after the recovery flush would then delete the active WAL's backing
	// file out from under it.
	for _, name := range logs {
		if n, perr := strconv.ParseUint(strings.TrimSuffix(name, ".log"), 10, 64); perr == nil && n >= db.nextFileNum {
			db.nextFileNum = n + 1
		}
	}
	// A WAL record can carry a pointer into vlog bytes the crash tore
	// away. Such records are dropped whole (the batch is atomic): they
	// were never acknowledged as durable — the group commit acks after
	// the WAL append, but durability is only promised at the Flush
	// barrier, which syncs the vlog before the WAL's memtable reaches an
	// SST — so dropping them is within the recovery contract. The
	// unchecked-replay mode skips the validation along with everything
	// else it skips.
	checkPtrs := db.vlog != nil && !db.opt.UncheckedWALReplay
	resolves := func(kind memtable.Kind, key, value []byte) bool {
		if !checkPtrs || kind != memtable.KindValuePtr {
			return true
		}
		ptr, perr := encoding.DecodeValuePointer(value)
		// The record's embedded key must match: a bare bounds check would
		// also accept stale bytes left at the same (segment, offset) by a
		// dead incarnation or a lost write-back, silently resolving the
		// pointer into another key's value.
		return perr == nil && db.vlog.Resolves(ptr) && db.vlog.VerifyKey(r, ptr, key)
	}
	// Replay inserts each record into the fresh memtable under the
	// sequence number recovery assigns it, log by log in order; the
	// records' WriteCPU is charged once, after the last log. The entries
	// are views of the replayed payloads, as a live write's are of its
	// logged record: the log's bytes outlive its file.
	replayed := 0
	var ops []loggedOp // one record's ops; reused record to record
	for _, name := range logs {
		replayFn := wal.Replay
		if db.opt.UncheckedWALReplay {
			replayFn = wal.ReplayUnchecked
		}
		// Every record is an atomic batch: replay all its ops or none.
		// Decode fully before applying so a dangling pointer drops the
		// whole batch. (Only unchecked replay can meet anything else; the
		// batch decoder refuses it.)
		err := replayFn(r, fsys, name, func(payload []byte) error {
			ops = ops[:0]
			derr := decodeBatch(payload, func(op loggedOp) error {
				ops = append(ops, op)
				return nil
			})
			if derr != nil {
				return derr
			}
			for _, op := range ops {
				if !resolves(op.kind, op.key(), op.value()) {
					return nil
				}
			}
			for _, op := range ops {
				db.seq++
				db.mem.AddView(db.seq, op.kind, op.kv, op.klen, op.gap)
			}
			replayed += len(ops)
			return nil
		})
		if err != nil {
			return abort(err)
		}
	}
	if replayed > 0 {
		db.opt.CPU.Run(r, db.opt.Cost.WriteCPU*time.Duration(replayed))
	}

	db.log = db.newWAL()
	clk.Go("lsm.flush", db.flushWorker)
	for i := 0; i < db.opt.MaxCompactionThreads; i++ {
		i := i
		clk.Go(fmt.Sprintf("lsm.compact%d", i), func(w *vclock.Runner) { db.compactionWorker(w, i) })
	}

	// The replayed records live only in the volatile memtable; the old
	// logs are their sole durable copy. Flush them to an SST before
	// deleting the logs, or a second crash during the recovery window
	// would silently lose data that had already survived the first one.
	if len(logs) > 0 {
		flushErr := error(nil)
		if db.mem.Count() > 0 {
			flushErr = db.Flush(r)
		}
		if flushErr == nil {
			for _, name := range logs {
				_ = fsys.Remove(r, name)
			}
		}
	}
	return db, nil
}

func manifestCounterFrom(current string) uint64 {
	parts := strings.SplitN(strings.TrimSpace(current), "-", 2)
	if len(parts) != 2 {
		return 0
	}
	n, err := strconv.ParseUint(parts[1], 10, 64)
	if err != nil {
		return 0
	}
	return n
}
