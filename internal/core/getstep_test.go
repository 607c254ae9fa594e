package core

import (
	"fmt"
	"testing"

	"kvaccel/internal/lsm"
	"kvaccel/internal/ssd"
	"kvaccel/internal/vclock"
)

// TestGetStepMatchesGet: a task's stepped read (DB.GetStep, and under it
// lsm.DB.GetStep) returns what Get returns, done at the instant Get
// returns, with the same controller and Main-LSM counters after it, from
// every source a read can be answered from or refused by. Each row plays
// one stack twice, identically up to the read: once reading with Get on
// a runner, once with GetStep on a task.
func TestGetStepMatchesGet(t *testing.T) {
	const n, target, absent = 60, 10, 1_000_000
	mainDB := func(db *DB) *lsm.DB { return db.Main().(*lsm.DB) }
	put := func(t *testing.T, r *vclock.Runner, db *DB) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := db.Put(r, key(i), viewValue(i, 0)); err != nil {
				t.Fatalf("put %d: %v", i, err)
			}
		}
	}
	flush := func(t *testing.T, r *vclock.Runner, db *DB) {
		t.Helper()
		if err := db.Flush(r); err != nil {
			t.Fatal(err)
		}
	}
	rows := []struct {
		name  string
		opt   func(*Options)
		tune  func(*lsm.Options)
		read  int // the key number read
		place func(t *testing.T, r *vclock.Runner, db *DB)
		// served counts reads the row's source answered; nil for a refusal.
		served func(db *DB) int64
	}{
		{"active-memtable", nil, nil, target, put,
			func(db *DB) int64 { return mainDB(db).Stats().ReadsMemtable }},
		{"immutable-memtable", nil, nil, target,
			func(t *testing.T, r *vclock.Runner, db *DB) {
				put(t, r, db)
				for i := 1000; mainDB(db).Health().ImmutableMemtables == 0; i++ {
					if err := db.Put(r, key(i), viewValue(i, 0)); err != nil {
						t.Fatal(err)
					}
				}
			},
			func(db *DB) int64 { return mainDB(db).Stats().ReadsImmutable }},
		{"sst-level", nil, nil, target,
			func(t *testing.T, r *vclock.Runner, db *DB) { put(t, r, db); flush(t, r, db) },
			func(db *DB) int64 { return mainDB(db).Stats().ReadsSST() }},
		// The memtable holds a value pointer: the read dereferences it.
		{"value-log-pointer", nil, func(o *lsm.Options) { o.ValueThreshold = 64 }, target, put,
			func(db *DB) int64 { return mainDB(db).Stats().VLogDerefs }},
		{"tombstone", nil, nil, target,
			func(t *testing.T, r *vclock.Runner, db *DB) {
				put(t, r, db)
				if err := db.Delete(r, key(target)); err != nil {
					t.Fatal(err)
				}
			},
			func(db *DB) int64 { return mainDB(db).Stats().ReadsMemtable }},
		{"miss", nil, nil, absent,
			func(t *testing.T, r *vclock.Runner, db *DB) { put(t, r, db); flush(t, r, db) },
			func(db *DB) int64 { return mainDB(db).Stats().ReadMisses }},
		{"dev-lsm-tracked", nil, nil, target,
			func(t *testing.T, r *vclock.Runner, db *DB) {
				db.det.SetOverride(true)
				put(t, r, db)
				db.det.SetOverride(false)
				if err := db.Device().(*ssd.KVRegion).DevLSM().Flush(r); err != nil {
					t.Fatal(err)
				}
			},
			func(db *DB) int64 { return db.Stats().DevServed }},
		{"front-cache-hit", func(o *Options) { o.FrontCacheBytes = 16 << 10 }, nil, target,
			func(t *testing.T, r *vclock.Runner, db *DB) {
				put(t, r, db)
				if _, ok, err := db.Get(r, key(target)); !ok || err != nil {
					t.Fatalf("filling get: ok=%v err=%v", ok, err)
				}
			},
			func(db *DB) int64 { return db.Stats().FrontCacheHits }},
		{"closed-db", nil, nil, target,
			func(t *testing.T, r *vclock.Runner, db *DB) { put(t, r, db); db.Close() }, nil},
		{"closed-main-lsm", nil, nil, target,
			func(t *testing.T, r *vclock.Runner, db *DB) { put(t, r, db); mainDB(db).Close() }, nil},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			// play runs the row and reports the read's outcome: results, the
			// instant it was done, the counters then, and how many reads the
			// row's source served.
			play := func(stepped bool) (outcome string, served int64) {
				opt := DefaultOptions()
				opt.Rollback = RollbackDisabled
				if row.opt != nil {
					row.opt(&opt)
				}
				clk, db := newStack(opt, row.tune)
				clk.Go("test", func(r *vclock.Runner) {
					defer db.Close()
					row.place(t, r, db)
					count := func() int64 { return 0 }
					if row.served != nil {
						count = func() int64 { return row.served(db) }
					}
					before := count()
					done := func(r *vclock.Runner, v []byte, ok bool, err error) {
						served = count() - before
						outcome = fmt.Sprintf("%q (nil %v) ok=%v err=%v at %v\nlsm %+v\ncore %+v", v, v == nil, ok, err, r.Now(), mainDB(db).Stats(), db.Stats())
					}
					if !stepped {
						v, ok, err := db.Get(r, key(row.read))
						done(r, v, ok, err)
						return
					}
					g := &steppedGet{db: db, rd: Read{Read: lsm.Read{Key: key(row.read)}}, done: done, over: vclock.NewCond("stepped-get")}
					clk.GoTask("stepped-get", stepGet, g)
					g.over.WaitUntil(r, stepGetOver, g)
				})
				clk.Wait()
				return outcome, served
			}
			want, served := play(false)
			got, _ := play(true)
			if got != want {
				t.Errorf("stepped:\n%s\nGet:\n%s", got, want)
			}
			if row.served != nil && served != 1 {
				t.Errorf("the row's source served %d reads, want 1", served)
			}
		})
	}
}

// steppedGet is a task's one stepped read, handing its results to done.
type steppedGet struct {
	db       *DB
	rd       Read
	done     func(r *vclock.Runner, v []byte, ok bool, err error)
	finished bool
	over     *vclock.Cond
}

func stepGet(r *vclock.Runner, arg any) bool {
	g := arg.(*steppedGet)
	if !g.db.GetStep(r, &g.rd) {
		return false
	}
	g.done(r, g.rd.Value, g.rd.OK, g.rd.Err)
	g.finished = true
	g.over.Broadcast()
	return true
}

func stepGetOver(arg any) bool { return arg.(*steppedGet).finished }
