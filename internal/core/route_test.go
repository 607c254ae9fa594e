package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"kvaccel/internal/faults"
	"kvaccel/internal/lsm"
	"kvaccel/internal/memtable"
	"kvaccel/internal/vclock"
)

// routeRec is one record of a write under test.
type routeRec struct {
	kind       memtable.Kind
	key, value []byte
}

// TestWriteRoutes pins every route of the Controller's write path (§V-C)
// for each write shape: a Put, a Delete and a two-record WriteBatch, each
// over keys the Main-LSM already holds and the front cache has cached.
// Per record it checks the counters the route moves, whether the metadata
// tracks the key afterwards, that the front cache holds nothing for the
// key or exactly the bytes this write stored (a put goes through the
// cache; a delete or a batch drops the entry), and the value read back. A
// normal write over redirected keys must also leave supersede markers
// that keep a crash recovery from resurrecting the buffered copies.
func TestWriteRoutes(t *testing.T) {
	shapes := []struct {
		name  string
		recs  []routeRec
		write func(db *DB, r *vclock.Runner, recs []routeRec) error
	}{
		{
			name: "put",
			recs: []routeRec{{memtable.KindPut, key(1), []byte("new-1")}},
			write: func(db *DB, r *vclock.Runner, recs []routeRec) error {
				return db.Put(r, recs[0].key, recs[0].value)
			},
		},
		{
			name: "delete",
			recs: []routeRec{{memtable.KindDelete, key(1), nil}},
			write: func(db *DB, r *vclock.Runner, recs []routeRec) error {
				return db.Delete(r, recs[0].key)
			},
		},
		{
			name: "batch",
			recs: []routeRec{{memtable.KindPut, key(1), []byte("new-1")}, {memtable.KindDelete, key(2), nil}},
			write: func(db *DB, r *vclock.Runner, recs []routeRec) error {
				var b lsm.Batch
				for _, rec := range recs {
					if rec.kind == memtable.KindDelete {
						b.Delete(rec.key)
					} else {
						b.Put(rec.key, rec.value)
					}
				}
				return db.WriteBatch(r, &b)
			},
		},
	}

	stallOptions := func() Options {
		opt := DefaultOptions()
		opt.StallFailover = true
		return opt
	}
	// holdL0Stop stops writes at the first L0 table and makes the
	// compaction that would clear it take hours of virtual time.
	holdL0Stop := func(lopt *lsm.Options) {
		lopt.L0CompactionTrigger = 1
		lopt.L0SlowdownTrigger = 1
		lopt.L0StopTrigger = 1
		lopt.Cost.MergeCPUPerKB = time.Hour
	}
	refuseKVPuts := func() *faults.Plan {
		plan := faults.NewPlan(1)
		plan.AddRule(faults.Rule{Op: "KV_PUT", Class: faults.MediaError, Every: 1})
		plan.AddRule(faults.Rule{Op: "KV_PUT_COMPOUND", Class: faults.MediaError, Every: 1})
		return plan
	}

	routes := []struct {
		name string
		opt  func() Options
		open func(opt Options) (*vclock.Clock, *DB)
		// arm puts the stack on the route, after the keys are written and
		// before they are cached and overwritten.
		arm func(t *testing.T, r *vclock.Runner, db *DB, recs []routeRec)
		// Per-record counter deltas, and whether the metadata tracks the
		// key after the write.
		normal, redirected, wouldStall int64
		tracked                        bool
		// crash flushes, crashes and recovers after the write.
		crash bool
	}{
		{
			name: "detector redirect",
			opt:  DefaultOptions,
			open: func(opt Options) (*vclock.Clock, *DB) { return newStack(opt, nil) },
			arm: func(t *testing.T, r *vclock.Runner, db *DB, recs []routeRec) {
				db.det.SetOverride(true)
			},
			redirected: 1,
			tracked:    true,
		},
		{
			name: "would-stall failover",
			opt:  stallOptions,
			open: func(opt Options) (*vclock.Clock, *DB) { return newStack(opt, holdL0Stop) },
			arm: func(t *testing.T, r *vclock.Runner, db *DB, recs []routeRec) {
				if err := db.Flush(r); err != nil {
					t.Fatalf("flush into the L0 stop: %v", err)
				}
				// The stop bites once the active memtable is full: fill it
				// until a write fails over.
				for i := 1000; db.Stats().WouldStallRedirects == 0; i++ {
					if i == 2000 {
						t.Fatal("the L0 stop never engaged")
					}
					if err := db.Put(r, key(i), value(i)); err != nil {
						t.Fatalf("fill the memtable: %v", err)
					}
				}
			},
			redirected: 1,
			wouldStall: 1,
			tracked:    true,
		},
		{
			name: "device refusal falls back",
			opt:  DefaultOptions,
			open: func(opt Options) (*vclock.Clock, *DB) {
				clk, db, _ := newFaultStack(opt, refuseKVPuts())
				return clk, db
			},
			arm: func(t *testing.T, r *vclock.Runner, db *DB, recs []routeRec) {
				db.det.SetOverride(true)
			},
			normal: 1,
		},
		{
			name: "normal write supersedes",
			opt:  DefaultOptions,
			open: func(opt Options) (*vclock.Clock, *DB) { return newStack(opt, nil) },
			arm: func(t *testing.T, r *vclock.Runner, db *DB, recs []routeRec) {
				db.det.SetOverride(true)
				for _, rec := range recs {
					if red, err := db.PutEx(r, rec.key, []byte("buffered")); err != nil || !red {
						t.Fatalf("redirect %q: redirected=%v err=%v", rec.key, red, err)
					}
				}
				db.det.SetOverride(false)
			},
			normal: 1,
			crash:  true,
		},
	}

	for _, route := range routes {
		for _, shape := range shapes {
			route, shape := route, shape
			t.Run(route.name+"/"+shape.name, func(t *testing.T) {
				opt := route.opt()
				opt.Rollback = RollbackDisabled
				opt.FrontCacheBytes = 1 << 20
				clk, db := route.open(opt)
				recs := shape.recs
				readBack := func(r *vclock.Runner, when string) {
					for _, rec := range recs {
						v, ok, err := db.Get(r, rec.key)
						if err != nil {
							t.Fatalf("%s: get %q: %v", when, rec.key, err)
						}
						if rec.kind == memtable.KindDelete {
							if ok {
								t.Errorf("%s: deleted %q reads %q", when, rec.key, v)
							}
						} else if !ok || !bytes.Equal(v, rec.value) {
							t.Errorf("%s: %q reads %q (ok=%v), want %q", when, rec.key, v, ok, rec.value)
						}
					}
				}
				clk.Go("test", func(r *vclock.Runner) {
					defer db.Close()
					db.det.SetOverride(false)
					for i, rec := range recs {
						if err := db.Put(r, rec.key, []byte(fmt.Sprintf("old-%d", i))); err != nil {
							t.Fatalf("seed %q: %v", rec.key, err)
						}
					}
					route.arm(t, r, db, recs)
					for _, rec := range recs {
						if _, ok, err := db.Get(r, rec.key); err != nil || !ok {
							t.Fatalf("fill %q: ok=%v err=%v", rec.key, ok, err)
						}
						if _, hit := db.front.Get(rec.key); !hit {
							t.Fatalf("%q is not cached before the write", rec.key)
						}
					}

					before := db.Stats()
					if err := shape.write(db, r, recs); err != nil {
						t.Fatalf("write: %v", err)
					}
					after := db.Stats()
					n := int64(len(recs))
					for _, d := range []struct {
						name      string
						got, want int64
					}{
						{"NormalPuts", after.NormalPuts - before.NormalPuts, route.normal * n},
						{"RedirectedPuts", after.RedirectedPuts - before.RedirectedPuts, route.redirected * n},
						{"WouldStallRedirects", after.WouldStallRedirects - before.WouldStallRedirects, route.wouldStall * n},
					} {
						if d.got != d.want {
							t.Errorf("%s moved by %d, want %d", d.name, d.got, d.want)
						}
					}
					for _, rec := range recs {
						if got := db.meta.Contains(rec.key); got != route.tracked {
							t.Errorf("metadata tracks %q: %v, want %v", rec.key, got, route.tracked)
						}
						if v, hit := db.front.Get(rec.key); hit && (rec.kind == memtable.KindDelete || !bytes.Equal(v, rec.value)) {
							t.Errorf("front cache holds %q = %q after the write, want nothing or %q", rec.key, v, rec.value)
						}
					}
					readBack(r, "after the write")

					if !route.crash {
						return
					}
					if err := db.Flush(r); err != nil {
						t.Fatalf("flush: %v", err)
					}
					db.SimulateCrash()
					if err := db.Recover(r); err != nil {
						t.Fatalf("recover: %v", err)
					}
					readBack(r, "after crash and recovery")
				})
				clk.Wait()
			})
		}
	}
}
