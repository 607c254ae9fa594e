package lsm

import (
	"bytes"
	"testing"

	"kvaccel/internal/fs"
	"kvaccel/internal/memtable"
	"kvaccel/internal/vclock"
)

func TestBatchAtomicCommit(t *testing.T) {
	clk, db := newTestDB(0, smallOpts())
	clk.Go("test", func(r *vclock.Runner) {
		defer db.Close()
		_ = db.Put(r, key(1), []byte("old"))
		var b Batch
		b.Put(key(1), []byte("new"))
		b.Put(key(2), []byte("v2"))
		b.Delete(key(3))
		if b.Len() != 3 || b.Bytes() == 0 {
			t.Fatalf("batch staging broken: len=%d", b.Len())
		}
		if err := db.Write(r, &b); err != nil {
			t.Fatal(err)
		}
		v, ok, _ := db.Get(r, key(1))
		if !ok || string(v) != "new" {
			t.Errorf("key1 = %q", v)
		}
		if _, ok, _ := db.Get(r, key(2)); !ok {
			t.Error("key2 missing")
		}
		b.Reset()
		if b.Len() != 0 {
			t.Error("reset failed")
		}
		if err := db.Write(r, &b); err != nil {
			t.Errorf("empty batch: %v", err)
		}
	})
	clk.Wait()
}

func TestBatchEncodingRoundTrip(t *testing.T) {
	var b Batch
	b.Put([]byte("alpha"), []byte("1"))
	b.Delete([]byte("beta"))
	b.Put([]byte(""), nil) // empty key/value edge
	enc := appendGroupPayload(nil, []*groupWriter{{ops: b.ops[:1]}, {ops: b.ops[1:]}}, b.Len())
	var got []string
	err := decodeBatch(enc, func(kind memtable.Kind, key, value []byte) error {
		got = append(got, string(key)+"/"+string(value))
		return nil
	})
	if err != nil || len(got) != 3 {
		t.Fatalf("decode: %v got=%v", err, got)
	}
	if got[0] != "alpha/1" || got[1] != "beta/" || got[2] != "/" {
		t.Fatalf("ops = %v", got)
	}
	// Corruption detection.
	if err := decodeBatch(enc[:3], func(memtable.Kind, []byte, []byte) error { return nil }); err == nil {
		t.Fatal("truncated batch accepted")
	}
	if err := decodeBatch([]byte{0x00}, func(memtable.Kind, []byte, []byte) error { return nil }); err == nil {
		t.Fatal("wrong marker accepted")
	}
}

func TestBatchSurvivesRestartViaWAL(t *testing.T) {
	clk := vclock.New()
	fsys := fs.New(&testDev{pageSize: 4096, pages: 1 << 20})
	db := Open(clk, fsys, smallOpts())
	clk.Go("phase1", func(r *vclock.Runner) {
		_ = db.Put(r, key(0), value(0)) // force a flush so a manifest exists
		db.Flush(r)
		db.WaitIdle(r)
		var b Batch
		for i := 10; i < 20; i++ {
			b.Put(key(i), value(i))
		}
		if err := db.Write(r, &b); err != nil {
			t.Error(err)
		}
		lg := db.log
		lg.Sync(r)
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
		for i := 10; i < 20; i++ {
			v, ok, err := db2.Get(r, key(i))
			if err != nil || !ok || !bytes.Equal(v, value(i)) {
				t.Errorf("batch op %d lost across restart", i)
			}
		}
	})
	clk2.Wait()
}
