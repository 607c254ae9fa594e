package harness

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"kvaccel/internal/core"
	"kvaccel/internal/cpu"
	"kvaccel/internal/devlsm"
	"kvaccel/internal/faults"
	"kvaccel/internal/fs"
	"kvaccel/internal/lsm"
	"kvaccel/internal/nand"
	"kvaccel/internal/nvme"
	"kvaccel/internal/pcie"
	"kvaccel/internal/ssd"
	"kvaccel/internal/trace"
	"kvaccel/internal/vclock"
)

// Crash-recovery torture: drive a full KVACCEL stack through fillrandom
// with rollback active, cut the device's power at seeded virtual-clock
// instants, reattach, recover, and check a host-side oracle. The oracle
// encodes exactly the durability the system promises — nothing more:
//
//   - A redirected (Dev-LSM) acknowledged write is durable the moment it
//     is acknowledged: the KV region is power-loss-protected (§VI-D).
//   - A normal-path acknowledged write is durable once a later
//     Flush/Sync barrier returns nil.
//   - A normal-path acknowledgment VOIDS any earlier redirect guarantee
//     for the same key: the supersede marker suppresses the device copy
//     while the superseding write may still sit in an unsynced WAL
//     (DESIGN.md §9 documents the hazard).
//
// After each recovery the oracle checks that every guaranteed key is
// present at at-least its guaranteed version, that every surfaced
// key/value was actually written at some point (no phantoms, no
// corruption), and that recovery left the Dev-LSM empty.

// TortureParams configures one torture run. The same Seed always yields
// the same fault plan, cut instants, torn-tail lengths, and corruption.
type TortureParams struct {
	Seed        int64
	Cuts        int           // number of power-cut phases
	OpsPerPhase int           // max puts per phase (the cut usually lands first)
	KeySpace    int           // distinct keys
	ValueSize   int           // bytes per value
	CutWindow   time.Duration // cut instant drawn from (0, CutWindow] after phase start
	FaultRules  bool          // add deterministic NVMe media-error/timeout/latency rules
	// ValueThreshold enables value separation in the Main-LSM under
	// torture: values at or above it live in the value log, so the
	// oracle's durability checks cover vlog torn tails and GC. 0
	// disables separation; DefaultTortureParams enables it (48 bytes,
	// below the default 96-byte values, so every put separates).
	ValueThreshold int
	// FrontCacheBytes enables the hot-key front cache in the
	// controller under torture, so the oracle's read-back checks also
	// police cache coherence across writes, redirects, and recovery
	// (a stale cached value is a durability violation like any other).
	// 0 disables; DefaultTortureParams enables a small one.
	FrontCacheBytes int64
	// LingerMicros opens the group leader's adaptive linger window in the
	// Main-LSM (lsm.Options.GroupLingerMicros), so cuts can land inside
	// an open window; DefaultTortureParams enables it. The pipelined WAL
	// and the concurrent memtable are always on — they are the write
	// path's defaults — so every phase exercises them.
	LingerMicros int64
	// BrokenRecovery deliberately replays WALs without checksum
	// verification (lsm.Options.UncheckedWALReplay). A correct oracle
	// must catch the resulting corruption; the negative test asserts
	// violations are reported.
	BrokenRecovery bool
	Logf           func(format string, args ...any) // optional progress sink
	// Hook, when set, runs inside each phase's host runner before
	// ("pre-recover") and after ("post-recover") crash recovery — test
	// instrumentation for drilling into a failing seed.
	Hook func(r *vclock.Runner, db *core.DB, phase int, when string)
	// TracePath, when set, records causal op spans through every phase
	// and writes a Chrome trace of the window around the first oracle
	// violation to this file — the forensic view of a failing seed.
	// Phases run on fresh clocks; the trace stitches them onto one
	// monotone time axis via per-phase time-base epochs.
	TracePath string
}

// DefaultTortureParams is the configuration the torture tests run with.
func DefaultTortureParams(seed int64) TortureParams {
	return TortureParams{
		Seed:        seed,
		Cuts:        5,
		OpsPerPhase: 6000,
		KeySpace:    250,
		ValueSize:   96,
		CutWindow:   60 * time.Millisecond,
		FaultRules:  true,

		ValueThreshold: 48,

		FrontCacheBytes: 256 << 10,

		LingerMicros: 200,
	}
}

// TortureReport summarizes a run. Violations is empty iff every oracle
// check passed in every phase.
type TortureReport struct {
	Phases     int
	CutsFired  int
	Acked      int64
	Redirected int64
	Barriers   int64
	Injected   int64 // faults injected by the plan (all classes)
	// KVStats sums the KVACCEL controller's counters across phases:
	// RollbackPairs is what Recover replayed, Dev* the retry-policy view
	// of the injected faults.
	KVStats    core.Stats
	Violations []string
	// TraceDumped reports that a violation fired with TracePath set and
	// the Chrome trace of the violating phase's window was written.
	TraceDumped bool
}

// torKeyState is the oracle's view of one key.
type torKeyState struct {
	attempted      map[uint64]bool // every version number ever submitted
	lastIdx        uint64          // newest acknowledged version
	lastRedirected bool            // ... and the path that acknowledged it
	normalG        uint64          // newest normal-path version covered by a barrier
}

type tortureOracle struct {
	keys map[string]*torKeyState
	next uint64
}

func newTortureOracle() *tortureOracle {
	return &tortureOracle{keys: make(map[string]*torKeyState)}
}

func (o *tortureOracle) state(k string) *torKeyState {
	st, ok := o.keys[k]
	if !ok {
		st = &torKeyState{attempted: make(map[uint64]bool)}
		o.keys[k] = st
	}
	return st
}

// barrier records a successful Flush: every key whose newest ack took
// the normal path is now guaranteed at that version. Keys whose newest
// ack was redirected already carry a stronger guarantee.
func (o *tortureOracle) barrier() {
	for _, st := range o.keys {
		if st.lastIdx > 0 && !st.lastRedirected {
			st.normalG = st.lastIdx
		}
	}
}

// guarantee returns the minimum version the store must surface for k
// after any crash, or 0 if the key carries no guarantee.
func (o *tortureOracle) guarantee(st *torKeyState) uint64 {
	if st.lastIdx > 0 && st.lastRedirected {
		return st.lastIdx
	}
	return st.normalG
}

func torKey(i int) string { return fmt.Sprintf("tk%06d", i) }

// torValue is self-identifying: key and version are recoverable from
// the value alone, so the oracle can detect corruption and phantoms.
func torValue(key string, idx uint64, size int) []byte {
	s := fmt.Sprintf("%s#%d#", key, idx)
	for len(s) < size {
		s += "x"
	}
	return []byte(s)
}

// parseTorValue recovers the version from a value written for key, or
// an error if the bytes are not a value this run ever wrote for it.
func parseTorValue(key string, v []byte) (uint64, error) {
	s := string(v)
	if !strings.HasPrefix(s, key+"#") {
		return 0, fmt.Errorf("value does not carry key %q: %.40q", key, s)
	}
	rest := s[len(key)+1:]
	cut := strings.IndexByte(rest, '#')
	if cut < 0 {
		return 0, fmt.Errorf("value missing version terminator: %.40q", s)
	}
	idx, err := strconv.ParseUint(rest[:cut], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("unparseable version in %.40q: %v", s, err)
	}
	for _, c := range rest[cut+1:] {
		if c != 'x' {
			return 0, fmt.Errorf("corrupt padding in %.40q", s)
		}
	}
	return idx, nil
}

// tortureSSDConfig is a small device so flushes, compactions, and
// rollbacks all happen within a phase. Its NVMe queues are the benchmark
// machine's (QD 32, 64 firmware slots), so cuts land while flush and
// compaction I/O is pipelined.
func tortureSSDConfig(plan *faults.Plan) ssd.Config {
	dl := devlsm.DefaultConfig()
	dl.PutCPU = 12 * time.Microsecond
	return ssd.Config{
		Geometry:          nand.Geometry{Channels: 2, Ways: 4, BlocksPerDie: 256, PagesPerBlock: 64, PageSize: 4096},
		Timing:            nand.Timing{ReadPage: 40 * time.Microsecond, ProgramPage: 300 * time.Microsecond, ChannelMBps: 300},
		PCIe:              pcie.Config{BandwidthMBps: 2000, Latency: 2 * time.Microsecond, Lanes: 2},
		NVMe:              nvme.DefaultConfig(),
		BlockRegionBytes:  256 << 20,
		KVRegionBytes:     64 << 20,
		DevLSM:            dl,
		KVCommandOverhead: 5 * time.Microsecond,
		DMAChunkSize:      128 << 10,
		IOQueues:          1,
		Faults:            plan,
	}
}

// RunTorture executes one seeded crash-recovery torture run.
func RunTorture(p TortureParams) TortureReport {
	if p.OpsPerPhase <= 0 {
		p.OpsPerPhase = 6000
	}
	if p.KeySpace <= 0 {
		p.KeySpace = 250
	}
	if p.ValueSize < 32 {
		p.ValueSize = 32
	}
	if p.CutWindow <= 0 {
		p.CutWindow = 60 * time.Millisecond
	}
	logf := p.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	rng := rand.New(rand.NewSource(p.Seed))
	plan := faults.NewPlan(p.Seed)
	if p.FaultRules {
		DefaultFaultRules(plan)
	}

	var tr *trace.Tracer
	if p.TracePath != "" {
		tr = trace.New(1 << 18)
	}

	clk := vclock.New()
	scfg := tortureSSDConfig(plan)
	scfg.Trace = tr
	dev := ssd.New(clk, scfg)
	fsys := fs.New(dev.BlockNamespace(0, 0))
	oracle := newTortureOracle()

	rep := TortureReport{}
	var traceBase vclock.Time
	var traceDump []byte

	// Phase p < Cuts ends in a power cut; the final phase is a clean
	// open → recover → verify → close.
	for phase := 0; phase <= p.Cuts; phase++ {
		if phase > 0 {
			clk = vclock.New()
			dev.Attach(clk)
		}
		tr.SetTimeBase(traceBase)
		nViolBefore := len(rep.Violations)
		cutPhase := phase < p.Cuts
		// Drawn outside the runner so the sequence of seeded decisions
		// does not depend on goroutine scheduling.
		cutDelay := time.Duration(1 + rng.Int63n(int64(p.CutWindow)))
		// Besides the timed cut — which stays armed as a fallback — a
		// phase may sever power at the Nth group-commit hook hit: inside
		// an open linger window ("in-linger") or between an overlapped
		// WAL append and its predecessor's apply ("pre-append"), the two
		// crash windows the deepened write pipeline added. If the chosen
		// stage never reaches N hits (a futile-linger backoff, say), the
		// timed cut still fires.
		stages := []string{"", "in-linger", "pre-append"}
		cutStage := stages[rng.Intn(len(stages))]
		cutNth := int64(1 + rng.Int63n(4))
		var hookArmed bool
		var hookHits int64

		clk.Go("torture.host", func(r *vclock.Runner) {
			lopt := lsm.DefaultOptions(cpu.NewPool(8, "host"))
			lopt.MemtableSize = 64 << 10
			lopt.L0SlowdownTrigger = 8
			lopt.L0StopTrigger = 12
			lopt.PendingCompactionSlowdownBytes = 64 << 20
			lopt.PendingCompactionStopBytes = 256 << 20
			lopt.BaseLevelBytes = 256 << 10
			lopt.MaxFileSize = 128 << 10
			lopt.BlockCacheBytes = 64 << 20
			lopt.Cost.MergeCPUPerKB = 4 * time.Microsecond
			// Small WAL chunks keep the write-back runner busy, so a
			// seeded cut regularly lands mid-append and leaves a torn
			// tail — the case the checksummed replay exists for.
			lopt.WALChunkSize = 2 << 10
			lopt.WALQueueDepth = 32
			lopt.UncheckedWALReplay = p.BrokenRecovery
			lopt.Trace = tr
			// Small vlog segments (two per memtable) keep rotation, GC,
			// and punching all live within a phase, so cuts land mid-GC.
			lopt.ValueThreshold = p.ValueThreshold
			lopt.VLogSegmentSize = 32 << 10
			lopt.VLogGCDiscardRatio = 0.3
			// The deepened write pipeline under torture: the linger window
			// holds commit slots open, the pipelined WAL overlaps appends
			// with applies, and replay reconstructs the memtable on every
			// Reopen. The hook severs power inside the chosen window.
			lopt.GroupLingerMicros = p.LingerMicros
			if cutPhase && cutStage != "" {
				lopt.TestHook = func(stage string) {
					if stage != cutStage || !hookArmed {
						return
					}
					if hookHits++; hookHits == cutNth && !dev.Severed() {
						dev.Sever()
					}
				}
			}

			var main *lsm.DB
			if fsys.Exists("CURRENT") {
				m, err := lsm.Reopen(r, clk, fsys, lopt)
				if err != nil {
					rep.violatef("phase %d: lsm.Reopen: %v", phase, err)
					return
				}
				main = m
			} else {
				main = lsm.Open(clk, fsys, lopt)
			}

			opt := core.DefaultOptions()
			opt.Rollback = core.RollbackEager
			opt.DetectorPeriod = 2 * time.Millisecond
			opt.Trace = tr
			opt.FrontCacheBytes = p.FrontCacheBytes
			db := core.Open(clk, main, dev.KVRegionFull(), opt)
			defer func() {
				rep.KVStats = rep.KVStats.Add(db.Stats())
				db.Close()
			}()

			if phase > 0 {
				if p.Hook != nil {
					p.Hook(r, db, phase, "pre-recover")
				}
				// Crash recovery. A scan fault aborts Recover without the
				// reset; the pairs stay on the device, so retrying is safe
				// and expected under injected errors.
				var rerr error
				for attempt := 0; attempt < 3; attempt++ {
					if rerr = db.Recover(r); rerr == nil {
						break
					}
				}
				if rerr != nil {
					rep.violatef("phase %d: Recover failed after retries: %v", phase, rerr)
					return
				}
				if !db.Device().KVEmpty() {
					rep.violatef("phase %d: Dev-LSM not empty after Recover", phase)
				}
				if n := db.Metadata().Count(); n != 0 {
					rep.violatef("phase %d: %d metadata entries after Recover", phase, n)
				}
				if p.Hook != nil {
					p.Hook(r, db, phase, "post-recover")
				}
				rep.verify(r, db, oracle, phase)
			}

			if cutPhase {
				// Arm the cut only once recovery and verification are
				// done: the cut models a mid-workload power loss, and the
				// virtual instant is seeded relative to workload start.
				at := r.Now().Add(cutDelay)
				plan.ArmPowerCut(at)
				hookArmed = true
				clk.Go("torture.cutter", func(cr *vclock.Runner) {
					if t, ok := plan.NextPowerCut(); ok {
						cr.SleepUntil(t)
						dev.Sever()
					}
				})
				rep.workload(r, db, dev, oracle, rng, p)
			}
		})
		clk.Wait()
		rep.Phases++
		if tr != nil {
			// Stitch the next phase's fresh clock onto a monotone axis, and
			// capture the ring the moment a phase first violates the oracle —
			// later phases would overwrite the failing window.
			traceBase += clk.Now() + vclock.Time(time.Microsecond)
			if traceDump == nil && len(rep.Violations) > nViolBefore {
				traceDump = tr.ChromeTraceJSON()
			}
		}

		if cutPhase {
			if !dev.Severed() {
				dev.Sever() // the workload outran the cut; fail the tail anyway
			} else {
				rep.CutsFired++
			}
			fsys.Crash(plan)
			plan.DisarmPowerCut()
		}
		logf("phase %d done: acked=%d redirected=%d barriers=%d violations=%d",
			phase, rep.Acked, rep.Redirected, rep.Barriers, len(rep.Violations))
	}

	rep.Injected = plan.TotalInjected()
	if traceDump != nil {
		if err := os.WriteFile(p.TracePath, traceDump, 0o644); err != nil {
			logf("trace dump write failed: %v", err)
		} else {
			rep.TraceDumped = true
			logf("trace of violating window written to %s", p.TracePath)
		}
	}
	return rep
}

func (rep *TortureReport) violatef(format string, args ...any) {
	if len(rep.Violations) < 64 { // keep reports readable
		rep.Violations = append(rep.Violations, fmt.Sprintf(format, args...))
	}
}

// workload is fillrandom with seeded stall flips, explicit rollbacks,
// and periodic Flush barriers, until the ops budget or the power cut.
func (rep *TortureReport) workload(r *vclock.Runner, db *core.DB, dev *ssd.Device,
	o *tortureOracle, rng *rand.Rand, p TortureParams) {
	override := false
	for i := 0; i < p.OpsPerPhase && !dev.Severed(); i++ {
		if rng.Intn(25) == 0 {
			override = !override
			db.Detector().SetOverride(override)
		}
		k := torKey(rng.Intn(p.KeySpace))
		o.next++
		idx := o.next
		st := o.state(k)
		st.attempted[idx] = true
		red, err := db.PutEx(r, []byte(k), torValue(k, idx, p.ValueSize))
		if err == nil {
			st.lastIdx, st.lastRedirected = idx, red
			rep.Acked++
			if red {
				rep.Redirected++
			}
		}
		switch {
		case rng.Intn(150) == 0:
			if db.Flush(r) == nil {
				o.barrier()
				rep.Barriers++
			}
		case rng.Intn(400) == 0:
			db.Detector().SetOverride(false)
			override = false
			_ = db.RollbackNow(r) // faulted rollbacks retry later; pairs stay buffered
		}
	}
}

// verify checks the recovered store against the oracle, then resyncs
// the oracle to the surviving state. The resync matters for soundness:
// an acked write above the guarantee floor is allowed to die in a
// crash, and once it has, later Flush barriers can only promise the
// version the engine still holds — promoting lastIdx from before the
// cut would demand a value the store legitimately lost. Post-recover
// the surviving version is durable (Reopen's recovery flush and
// Recover's pre-reset flush both precede this), so it becomes the new
// normal-path baseline.
func (rep *TortureReport) verify(r *vclock.Runner, db *core.DB, o *tortureOracle, phase int) {
	keys := make([]string, 0, len(o.keys))
	for k := range o.keys {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		st := o.keys[k]
		g := o.guarantee(st)
		resync := func(surviving uint64) {
			st.lastIdx = surviving
			st.lastRedirected = false
			st.normalG = surviving
		}
		v, ok, err := db.Get(r, []byte(k))
		if err != nil {
			rep.violatef("phase %d: Get(%s): %v", phase, k, err)
			continue
		}
		if !ok {
			if g > 0 {
				rep.violatef("phase %d: key %s absent, guaranteed version %d", phase, k, g)
			}
			resync(0)
			continue
		}
		idx, perr := parseTorValue(k, v)
		if perr != nil {
			rep.violatef("phase %d: key %s corrupt: %v", phase, k, perr)
			resync(0)
			continue
		}
		if !st.attempted[idx] {
			rep.violatef("phase %d: key %s surfaced version %d that was never written", phase, k, idx)
			resync(0)
			continue
		}
		if g > 0 && idx < g {
			rep.violatef("phase %d: key %s at version %d, guaranteed %d (lastIdx=%d lastRedirected=%v normalG=%d)",
				phase, k, idx, g, st.lastIdx, st.lastRedirected, st.normalG)
		}
		resync(idx)
	}
	// Full scan: everything the store surfaces must have been written.
	it := db.NewIterator(r)
	defer it.Close()
	for it.SeekToFirst(); it.Valid(); it.Next() {
		k := string(it.Key())
		st, known := o.keys[k]
		if !known {
			rep.violatef("phase %d: scan surfaced phantom key %q", phase, k)
			continue
		}
		idx, perr := parseTorValue(k, it.Value())
		if perr != nil {
			rep.violatef("phase %d: scan: key %s corrupt: %v", phase, k, perr)
			continue
		}
		if !st.attempted[idx] {
			rep.violatef("phase %d: scan: key %s version %d never written", phase, k, idx)
		}
	}
}
