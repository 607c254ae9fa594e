package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"kvaccel/internal/hotring"
	"kvaccel/internal/memtable"
	"kvaccel/internal/vclock"
)

// TestFrontCacheWriteThroughConcurrent runs the write-through property
// over a few seeds: concurrent puts, gets and deletes over a few keys
// never read a stale value through the front cache.
func TestFrontCacheWriteThroughConcurrent(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		if msg := runWriteThroughProperty(seed, (*hotring.Cache).EndWrite); msg != "" {
			t.Fatalf("seed %d: %s", seed, msg)
		}
	}
}

// TestFrontCacheWriteThroughNegativeControl swaps the write end for one
// that refreshes a resident entry without checking the write's token:
// two overlapping writes to a key can then end in the other order than
// they landed, and the one that landed first installs its value last. The
// property must catch that on some seed, or it shows nothing.
func TestFrontCacheWriteThroughNegativeControl(t *testing.T) {
	unchecked := func(c *hotring.Cache, key, value []byte, _ uint64) {
		c.EndWrite(key, value, c.BeginWrite(key))
	}
	for seed := int64(1); seed <= 20; seed++ {
		if msg := runWriteThroughProperty(seed, unchecked); msg != "" {
			t.Logf("seed %d caught the unchecked write end: %s", seed, msg)
			return
		}
	}
	t.Fatal("no seed caught a write end that skips the token check")
}

// wtWrite is one write the property test issued: a put of its version
// number, or a delete. Version 0 of every key is the absent key before
// the first write, issued and acknowledged at time 1.
type wtWrite struct {
	del        bool
	issue, ack int64 // logical times; ack is 0 while the write is open
}

// runWriteThroughProperty runs 8 runners over 16 keys doing puts, gets and
// deletes on a stack with the front cache on, while they toggle the
// detector override, and one of them rolls the Dev-LSM back halfway. It
// returns the first violation of either rule, or "". Point writes end
// their front-cache tokens through writeEnd.
//
//   - Every Get returns a version no older than the newest write
//     acknowledged before the Get began: not one acknowledged before that
//     write was issued.
//   - A Get of a key no write touched from its start until a read that
//     bypasses the front cache returned (the key was quiet) returns what
//     that read returns. Overlapping writes land in an order the runners
//     cannot see; the engine shows it, and on a quiet key the cache must
//     agree with the engine.
func runWriteThroughProperty(seed int64, writeEnd func(*hotring.Cache, []byte, []byte, uint64)) string {
	const runners, keys, steps = 8, 16, 250
	opt := DefaultOptions()
	opt.Rollback = RollbackDisabled
	opt.FrontCacheBytes = 1 << 20
	clk, db := newStack(opt, nil)
	db.frontWriteEnd = writeEnd

	var (
		now    = int64(1) // logical time: one tick per event a runner records
		writes [keys][]wtWrite
		open   [keys]int // writes issued and not yet acknowledged
		fail   string
		done   int
	)
	for k := range writes {
		writes[k] = []wtWrite{{del: true, issue: 1, ack: 1}}
	}
	tick := func() int64 { now++; return now }
	version := func(k int, v []byte, ok bool) int {
		if !ok {
			return -1
		}
		i := bytes.LastIndexByte(v, '=')
		n, err := strconv.Atoi(string(v[i+1:]))
		if i < 0 || err != nil || !bytes.Equal(v[:i], key(k)) || n >= len(writes[k]) || writes[k][n].del {
			return -2
		}
		return n
	}
	// bypass reads k as Get does below the front cache.
	bypass := func(r *vclock.Runner, k []byte) ([]byte, bool) {
		if db.meta.Contains(k) {
			v, kind, found, err := db.devGet(r, k)
			if err == nil && found && kind != memtable.KindSupersede {
				return v, kind != memtable.KindDelete
			}
		}
		v, ok, _ := db.main.Get(r, k)
		return v, ok
	}
	write := func(r *vclock.Runner, k int, del bool) error {
		n := len(writes[k])
		writes[k] = append(writes[k], wtWrite{del: del, issue: tick()})
		open[k]++
		var err error
		if del {
			err = db.Delete(r, key(k))
		} else {
			err = db.Put(r, key(k), []byte(fmt.Sprintf("%s=%d", key(k), n)))
		}
		writes[k][n].ack = tick()
		open[k]--
		return err
	}
	get := func(r *vclock.Runner, k int) string {
		begin := tick()
		var floor int64 // the newest issue of a write acknowledged by now
		for _, w := range writes[k] {
			if w.ack != 0 && w.issue > floor {
				floor = w.issue
			}
		}
		quiet, issued := open[k] == 0, len(writes[k])
		v, ok, err := db.Get(r, key(k))
		if err != nil {
			return fmt.Sprintf("get %s: %v", key(k), err)
		}
		got := version(k, v, ok)
		if got == -2 {
			return fmt.Sprintf("get %s read %q, no write stored it", key(k), v)
		}
		stale := func(w wtWrite) bool { return w.ack != 0 && w.ack < floor }
		if got >= 0 && stale(writes[k][got]) {
			return fmt.Sprintf("get %s at %d read version %d, acknowledged at %d before a write issued at %d was acknowledged",
				key(k), begin, got, writes[k][got].ack, floor)
		}
		if got == -1 {
			absent := false
			for _, w := range writes[k] {
				absent = absent || w.del && !stale(w)
			}
			if !absent {
				return fmt.Sprintf("get %s at %d read nothing, but every delete was acknowledged before a put issued at %d was", key(k), begin, floor)
			}
		}
		if !quiet {
			return ""
		}
		tv, tok := bypass(r, key(k))
		if len(writes[k]) != issued {
			return "" // a write began: the key was not quiet
		}
		if want := version(k, tv, tok); got != want {
			return fmt.Sprintf("get %s of a quiet key read version %d, the engine holds %d", key(k), got, want)
		}
		return ""
	}

	for i := 0; i < runners; i++ {
		i := i
		rng := rand.New(rand.NewSource(seed*runners + int64(i)))
		clk.Go(fmt.Sprintf("runner-%d", i), func(r *vclock.Runner) {
			defer func() {
				if done++; done == runners {
					db.Close()
				}
			}()
			for step := 0; step < steps && fail == ""; step++ {
				if i == 0 && step == steps/2 {
					db.det.SetOverride(false)
					if err := db.RollbackNow(r); err != nil {
						fail = fmt.Sprintf("rollback: %v", err)
					}
					continue
				}
				k := rng.Intn(keys)
				var msg string
				switch op := rng.Intn(100); {
				case op < 40:
					if err := write(r, k, false); err != nil {
						msg = fmt.Sprintf("put %s: %v", key(k), err)
					}
				case op < 50:
					if err := write(r, k, true); err != nil {
						msg = fmt.Sprintf("delete %s: %v", key(k), err)
					}
				case op < 95:
					msg = get(r, k)
				default:
					db.det.SetOverride(rng.Intn(2) == 0)
				}
				if fail == "" {
					fail = msg
				}
			}
		})
	}
	clk.Wait()
	return fail
}
