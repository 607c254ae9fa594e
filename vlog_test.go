package kvaccel

import (
	"bytes"
	"fmt"
	"testing"
)

// TestVLogShardedMergedIteratorDeref routes separated values across every
// shard and walks the cross-shard merged cursor: pointers must deref
// transparently mid-merge, in global key order, from whichever shard's
// value log holds the bytes.
func TestVLogShardedMergedIteratorDeref(t *testing.T) {
	opt := DefaultOptions()
	opt.Shards = 4
	opt.Rollback = RollbackDisabled
	opt.ValueThreshold = 128
	db := Open(opt)

	const n = 400
	want := func(i int) []byte {
		if i%4 == 0 {
			return []byte(fmt.Sprintf("inline-%d", i)) // below threshold
		}
		return bytes.Repeat([]byte{byte('a' + i%26)}, 256+i%128)
	}
	db.Run("main", func(r *Runner) {
		defer db.Close()
		for i := 0; i < n; i++ {
			k := []byte(fmt.Sprintf("key%05d", i))
			if err := db.Put(r, k, want(i)); err != nil {
				t.Errorf("put %d: %v", i, err)
			}
		}
		// Flush so the cursor reads pointers back out of SSTs, and make
		// sure the values really did separate somewhere.
		if err := db.Flush(r); err != nil {
			t.Errorf("flush: %v", err)
		}
		separated := false
		for i := 0; i < db.NumShards(); i++ {
			if db.Shard(i).Main().Stats().VLogBytes > 0 {
				separated = true
			}
		}
		if !separated {
			t.Fatal("no shard separated any value into its vlog")
		}

		it := db.NewIterator(r)
		defer it.Close()
		i := 0
		var prev []byte
		for it.SeekToFirst(); it.Valid(); it.Next() {
			if prev != nil && bytes.Compare(it.Key(), prev) <= 0 {
				t.Fatalf("merged cursor out of order at %q", it.Key())
			}
			prev = append(prev[:0], it.Key()...)
			wantKey := fmt.Sprintf("key%05d", i)
			if string(it.Key()) != wantKey {
				t.Fatalf("cursor key %q, want %q", it.Key(), wantKey)
			}
			if !bytes.Equal(it.Value(), want(i)) {
				t.Fatalf("cursor value for %q wrong (len=%d, want %d)", it.Key(), len(it.Value()), len(want(i)))
			}
			i++
		}
		if i != n {
			t.Errorf("merged cursor yielded %d keys, want %d", i, n)
		}
	})
	db.Wait()
}

// TestVLogPublicOptionsRoundTrip drives separation through the public
// single-DB API: large values round-trip, and the engine stats surface
// the value log's activity.
func TestVLogPublicOptionsRoundTrip(t *testing.T) {
	opt := DefaultOptions()
	opt.Rollback = RollbackDisabled
	opt.ValueThreshold = 256
	db := Open(opt)
	db.Run("main", func(r *Runner) {
		defer db.Close()
		big := bytes.Repeat([]byte{'x'}, 1024)
		if err := db.Put(r, []byte("big"), big); err != nil {
			t.Fatalf("put: %v", err)
		}
		if err := db.Put(r, []byte("small"), []byte("s")); err != nil {
			t.Fatalf("put: %v", err)
		}
		v, ok, err := db.Get(r, []byte("big"))
		if err != nil || !ok || !bytes.Equal(v, big) {
			t.Fatalf("get big: ok=%v err=%v", ok, err)
		}
		// VLogBytes counts written-back bytes; Flush is the barrier that
		// pushes the buffered head chunk to the device.
		if err := db.Flush(r); err != nil {
			t.Fatalf("flush: %v", err)
		}
		if st := db.Stats().Main; st.VLogBytes == 0 {
			t.Errorf("VLogBytes not accounted: %+v", st)
		}
	})
	db.Wait()
}
