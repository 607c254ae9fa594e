package lsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"kvaccel/internal/fs"
	"kvaccel/internal/offload"
	"kvaccel/internal/ssd"
	"kvaccel/internal/vclock"
)

// offloadEnv builds a DB over a real simulated SSD (NAND array, FTL,
// NVMe, ARM core) — the stack the device-side merge executor needs.
// withOffload wires the namespace's offload channel and forces the gate
// open so every eligible L0→L1 merge goes to the device.
func offloadEnv(opt Options, withOffload bool) (*vclock.Clock, *fs.FileSystem, *DB) {
	clk := vclock.New()
	dev := ssd.New(clk, ssd.CosmosConfig())
	ns := dev.BlockNamespace(0, 0)
	fsys := fs.New(ns)
	if withOffload {
		opt.EnableCompactionOffload = true
		opt.Offloader = ns.Offloader()
		opt.ForceOffload = true
		// The paranoid full read-back stays on in the suite so the host
		// -side checksum pass over device-built bytes keeps its coverage.
		opt.OffloadVerifyReadback = true
	}
	return clk, fsys, Open(clk, fsys, opt)
}

// offloadRound writes one deterministic round of keys derived from rng:
// mostly puts, some overwrites of earlier rounds, some deletes.
func offloadRound(r *vclock.Runner, t *testing.T, db *DB, rng *rand.Rand, round int) {
	for i := 0; i < 90; i++ {
		k := []byte(fmt.Sprintf("key%03d-%05d", round, rng.Intn(4000)))
		v := bytes.Repeat([]byte{byte('a' + rng.Intn(26))}, 100+rng.Intn(156))
		if err := db.Put(r, k, v); err != nil {
			t.Errorf("put: %v", err)
		}
	}
	for i := 0; i < 10; i++ {
		prior := rng.Intn(round + 1)
		k := []byte(fmt.Sprintf("key%03d-%05d", prior, rng.Intn(4000)))
		if rng.Intn(2) == 0 {
			if err := db.Delete(r, k); err != nil {
				t.Errorf("delete: %v", err)
			}
		} else if err := db.Put(r, k, []byte("overwrite")); err != nil {
			t.Errorf("put: %v", err)
		}
	}
}

type offloadRunState struct {
	ssts     map[string][]byte // installed .sst name -> raw bytes
	contents [][2]string       // reopen iterator (key, value) sequence
	stats    Stats
	free     int64 // the file system's free bytes after the run
}

// runOffloadVariant drives the identical seeded workload against a host
// -only or device-offloaded DB: rounds of writes with Flush+WaitIdle
// barriers (so both variants pick the same compactions), then a
// snapshot of every installed table's bytes and a full iterator walk
// over a reopened DB.
func runOffloadVariant(t *testing.T, seed int64, withOffload bool) offloadRunState {
	t.Helper()
	clk, fsys, db := offloadEnv(smallOpts(), withOffload)
	return driveOffloadVariant(t, seed, clk, fsys, db)
}

// driveOffloadVariant is runOffloadVariant on an opened DB.
func driveOffloadVariant(t *testing.T, seed int64, clk *vclock.Clock, fsys *fs.FileSystem, db *DB) offloadRunState {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	clk.Go("writer", func(r *vclock.Runner) {
		for round := 0; round < 12; round++ {
			offloadRound(r, t, db, rng, round)
			if err := db.Flush(r); err != nil {
				t.Errorf("flush: %v", err)
			}
			db.WaitIdle(r)
		}
		db.Close()
	})
	clk.Wait()

	st := offloadRunState{ssts: map[string][]byte{}, stats: db.Stats(), free: fsys.FreeBytes()}
	for _, name := range fsys.List() {
		if !strings.HasSuffix(name, ".sst") {
			continue
		}
		data, err := fsys.MediaRead(name)
		if err != nil {
			t.Fatalf("MediaRead(%s): %v", name, err)
		}
		st.ssts[name] = data
	}

	clk2 := vclock.New()
	clk2.Go("reader", func(r *vclock.Runner) {
		db2, err := Reopen(r, clk2, fsys, smallOpts())
		if err != nil {
			t.Errorf("reopen: %v", err)
			return
		}
		defer db2.Close()
		it := db2.NewIterator(r)
		defer it.Close()
		for it.SeekToFirst(); it.Valid(); it.Next() {
			st.contents = append(st.contents,
				[2]string{string(it.Key()), string(it.Value())})
		}
		if err := it.Err(); err != nil {
			t.Errorf("iterator: %v", err)
		}
	})
	clk2.Wait()
	return st
}

// TestOffloadEquivalence is the seeded property test: for every seed,
// the device-offloaded run must install byte-identical SSTs and a
// reopened DB must iterate the identical contents as the host-only run.
// The device merge shares the host's merge core (internal/offload), so
// any divergence is a real protocol or executor bug, not formatting.
func TestOffloadEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			host := runOffloadVariant(t, seed, false)
			dev := runOffloadVariant(t, seed, true)

			if dev.stats.OffloadedCompactions == 0 {
				t.Fatal("forced offload ran no device merges")
			}
			if host.stats.OffloadedCompactions != 0 {
				t.Fatal("host-only run reported offloaded compactions")
			}
			if len(dev.ssts) != len(host.ssts) {
				t.Fatalf("table count differs: host=%d dev=%d", len(host.ssts), len(dev.ssts))
			}
			for name, hb := range host.ssts {
				db, ok := dev.ssts[name]
				if !ok {
					t.Fatalf("table %s missing from offloaded run", name)
				}
				if !bytes.Equal(hb, db) {
					t.Fatalf("table %s differs between host and device merges (%d vs %d bytes)",
						name, len(hb), len(db))
				}
			}
			if len(host.contents) != len(dev.contents) {
				t.Fatalf("iterator lengths differ: host=%d dev=%d",
					len(host.contents), len(dev.contents))
			}
			for i := range host.contents {
				if host.contents[i] != dev.contents[i] {
					t.Fatalf("entry %d differs: host=%q dev=%q",
						i, host.contents[i], dev.contents[i])
				}
			}
		})
	}
}

// shortOffloader hands its first merge to the device with a one-page
// output reservation, so the executor runs out of pages and aborts; later
// merges pass through untouched.
type shortOffloader struct {
	Offloader
	submits int
}

func (o *shortOffloader) SubmitMerge(r *vclock.Runner, req *offload.MergeRequest) (*offload.MergeResult, error) {
	if o.submits++; o.submits > 1 {
		return o.Offloader.SubmitMerge(r, req)
	}
	short := *req
	short.OutputPages = req.OutputPages[:1]
	return o.Offloader.SubmitMerge(r, &short)
}

// TestOffloadAbortFallsBackToHostMerge: a device merge that outgrows its
// reservation aborts; the engine counts one fallback, releases the
// reserved pages and installs, through the host merge, the very tables
// a host-only run installs.
func TestOffloadAbortFallsBackToHostMerge(t *testing.T) {
	host := runOffloadVariant(t, 1, false)
	clk, fsys, db := offloadEnv(smallOpts(), true)
	so := &shortOffloader{Offloader: db.opt.Offloader}
	db.opt.Offloader = so
	got := driveOffloadVariant(t, 1, clk, fsys, db)
	if so.submits < 2 || got.stats.OffloadFallbacks != 1 {
		t.Fatalf("%d merges submitted, %d fallbacks; want several and 1", so.submits, got.stats.OffloadFallbacks)
	}
	if got.free != host.free {
		t.Errorf("%d bytes free after the run, %d after the host-only run: reserved pages leaked", got.free, host.free)
	}
	if len(got.ssts) != len(host.ssts) {
		t.Fatalf("%d tables installed, the host-only run installs %d", len(got.ssts), len(host.ssts))
	}
	for name, want := range host.ssts {
		if !bytes.Equal(got.ssts[name], want) {
			t.Errorf("table %s differs from the host-only run's", name)
		}
	}
}

// failingOffloader rejects every merge request, to prove offload is
// strictly a hint: the host merge must absorb the work invisibly.
type failingOffloader struct{ submits int }

func (f *failingOffloader) SubmitMerge(r *vclock.Runner, req *offload.MergeRequest) (*offload.MergeResult, error) {
	f.submits++
	return nil, fmt.Errorf("injected offload failure")
}
func (f *failingOffloader) Busy() bool { return false }

func TestOffloadFallbackOnError(t *testing.T) {
	clk := vclock.New()
	fsys := fs.New(&testDev{pageSize: 4096, pages: 1 << 20})
	opt := smallOpts()
	fo := &failingOffloader{}
	opt.EnableCompactionOffload = true
	opt.Offloader = fo
	opt.ForceOffload = true
	db := Open(clk, fsys, opt)
	clk.Go("writer", func(r *vclock.Runner) {
		defer db.Close()
		rng := rand.New(rand.NewSource(7))
		for round := 0; round < 8; round++ {
			offloadRound(r, t, db, rng, round)
			_ = db.Flush(r)
			db.WaitIdle(r)
		}
		// Every key written must still be readable through the host
		// merges that absorbed the failed offloads.
		rng2 := rand.New(rand.NewSource(7))
		seen := map[string]bool{}
		for round := 0; round < 8; round++ {
			for i := 0; i < 90; i++ {
				k := fmt.Sprintf("key%03d-%05d", round, rng2.Intn(4000))
				rng2.Intn(26)
				rng2.Intn(156)
				seen[k] = true
			}
			for i := 0; i < 10; i++ {
				prior := rng2.Intn(round + 1)
				k := fmt.Sprintf("key%03d-%05d", prior, rng2.Intn(4000))
				if rng2.Intn(2) == 0 {
					delete(seen, k)
				} else {
					seen[k] = true
				}
			}
		}
		for k := range seen {
			if _, ok, err := db.Get(r, []byte(k)); err != nil || !ok {
				t.Errorf("key %s lost after offload fallback: ok=%v err=%v", k, ok, err)
			}
		}
	})
	clk.Wait()
	s := db.Stats()
	if fo.submits == 0 {
		t.Fatal("failing offloader was never consulted")
	}
	if s.OffloadFallbacks == 0 {
		t.Fatal("no fallbacks recorded")
	}
	if s.OffloadedCompactions != 0 {
		t.Fatalf("OffloadedCompactions = %d with an always-failing offloader", s.OffloadedCompactions)
	}
	if s.Compactions == 0 {
		t.Fatal("host merges never ran")
	}
}

// TestBlockCacheHoldsOnlyLiveTables pins the lifetime rule aliasing reads
// need: a cached block is a view of its table's image, so every removal of
// a table evicts its blocks. After a compaction-heavy fill whose merges
// run on the device, with point reads and scans beside them, every file
// with blocks in the cache is one the current version lists.
func TestBlockCacheHoldsOnlyLiveTables(t *testing.T) {
	clk, _, db := offloadEnv(smallOpts(), true)
	rng := rand.New(rand.NewSource(11))
	clk.Go("writer", func(r *vclock.Runner) {
		defer db.Close()
		read := func(rounds int) {
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("key%03d-%05d", rng.Intn(rounds), rng.Intn(4000))
				if _, _, err := db.Get(r, []byte(k)); err != nil {
					t.Fatal(err)
				}
			}
			it := db.NewIterator(r) // a scan reads ahead into the cache
			for it.SeekToFirst(); it.Valid(); it.Next() {
			}
			if err := it.Err(); err != nil {
				t.Fatal(err)
			}
			it.Close()
		}
		for round := 0; round < 12; round++ {
			offloadRound(r, t, db, rng, round)
			if err := db.Flush(r); err != nil {
				t.Fatal(err)
			}
			read(round + 1) // beside the compactions the flush set off
		}
		db.WaitIdle(r)
		read(12)
	})
	clk.Wait()
	if db.Stats().OffloadedCompactions == 0 {
		t.Fatal("no merge ran on the device")
	}
	live := map[uint64]bool{}
	for _, files := range db.vers.levels {
		for _, f := range files {
			live[f.Num] = true
		}
	}
	cached := db.cache.Files()
	if len(cached) == 0 {
		t.Fatal("nothing cached: the test reads no blocks")
	}
	for _, num := range cached {
		if !live[num] {
			t.Errorf("the block cache holds blocks of %s, which no version lists", SSTName(num))
		}
	}
	if !t.Failed() && db.Stats().BlockCacheEvictions == 0 {
		t.Fatal("no cached table was ever removed: the test no longer checks the rule")
	}
}
