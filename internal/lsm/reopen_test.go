package lsm

import (
	"bytes"
	"testing"

	"kvaccel/internal/fs"
	"kvaccel/internal/vclock"
)

// crashableEnv keeps the fs so a second DB can be reopened over it.
func crashableEnv() (*vclock.Clock, *fs.FileSystem, *DB) {
	clk := vclock.New()
	fsys := fs.New(&testDev{pageSize: 4096, pages: 1 << 20})
	return clk, fsys, Open(clk, fsys, smallOpts())
}

func TestReopenRestoresFlushedData(t *testing.T) {
	clk, fsys, db := crashableEnv()
	clk.Go("phase1", func(r *vclock.Runner) {
		for i := 0; i < 500; i++ {
			_ = db.Put(r, key(i), value(i))
		}
		db.Flush(r)
		db.WaitIdle(r)
		db.Close() // "crash" after everything durable
	})
	clk.Wait()

	clk2 := vclock.New()
	clk2.Go("phase2", func(r *vclock.Runner) {
		db2, err := Reopen(r, clk2, fsys, smallOpts())
		if err != nil {
			t.Errorf("reopen: %v", err)
			return
		}
		defer db2.Close()
		for i := 0; i < 500; i += 17 {
			v, ok, err := db2.Get(r, key(i))
			if err != nil || !ok || !bytes.Equal(v, value(i)) {
				t.Errorf("key %d lost across restart: ok=%v err=%v", i, ok, err)
			}
		}
		// The reopened DB must keep working.
		if err := db2.Put(r, key(9999), []byte("post-restart")); err != nil {
			t.Errorf("put after reopen: %v", err)
		}
		v, ok, _ := db2.Get(r, key(9999))
		if !ok || string(v) != "post-restart" {
			t.Error("write after reopen not visible")
		}
	})
	clk2.Wait()
}

func TestReopenReplaysWAL(t *testing.T) {
	clk, fsys, db := crashableEnv()
	clk.Go("phase1", func(r *vclock.Runner) {
		// Flush a base, then write more WITHOUT flushing; sync the WAL so
		// the records are on the device, then crash.
		for i := 0; i < 200; i++ {
			_ = db.Put(r, key(i), value(i))
		}
		db.Flush(r)
		db.WaitIdle(r)
		for i := 200; i < 260; i++ {
			_ = db.Put(r, key(i), value(i))
		}
		db.mu.Lock()
		lg := db.log
		db.mu.Unlock()
		lg.Sync(r) // the OS wrote these back before the crash
		db.Close()
	})
	clk.Wait()

	clk2 := vclock.New()
	clk2.Go("phase2", func(r *vclock.Runner) {
		db2, err := Reopen(r, clk2, fsys, smallOpts())
		if err != nil {
			t.Errorf("reopen: %v", err)
			return
		}
		defer db2.Close()
		for i := 200; i < 260; i += 7 {
			v, ok, err := db2.Get(r, key(i))
			if err != nil || !ok || !bytes.Equal(v, value(i)) {
				t.Errorf("WAL record %d not replayed: ok=%v err=%v", i, ok, err)
			}
		}
	})
	clk2.Wait()
}

func TestReopenWithoutCurrentFails(t *testing.T) {
	clk := vclock.New()
	fsys := fs.New(&testDev{pageSize: 4096, pages: 1024})
	clk.Go("r", func(r *vclock.Runner) {
		if _, err := Reopen(r, clk, fsys, smallOpts()); err == nil {
			t.Error("reopen of empty fs succeeded")
		}
	})
	clk.Wait()
}

func TestManifestRoundTrip(t *testing.T) {
	snap := manifestSnapshot{
		nextFileNum: 42,
		seq:         1000,
		files: []manifestFile{
			{num: 3, level: 0, smallest: []byte("a"), largest: []byte("m"), size: 1234, entries: 10},
			{num: 7, level: 2, smallest: []byte(""), largest: []byte("zz"), size: 99, entries: 1},
		},
	}
	got, err := decodeManifest(encodeManifest(snap))
	if err != nil {
		t.Fatal(err)
	}
	if got.nextFileNum != 42 || got.seq != 1000 || len(got.files) != 2 {
		t.Fatalf("round trip: %+v", got)
	}
	if got.files[1].level != 2 || string(got.files[1].largest) != "zz" {
		t.Fatalf("file fields: %+v", got.files[1])
	}
	// Corruption must be detected.
	enc := encodeManifest(snap)
	enc[5] ^= 0xff
	if _, err := decodeManifest(enc); err == nil {
		t.Fatal("corrupt manifest accepted")
	}
	if _, err := decodeManifest(nil); err == nil {
		t.Fatal("empty manifest accepted")
	}
}

func TestManifestCounterParse(t *testing.T) {
	if manifestCounterFrom("MANIFEST-000007") != 7 {
		t.Fatal("counter parse failed")
	}
	if manifestCounterFrom("junk") != 0 {
		t.Fatal("junk should parse to 0")
	}
}
