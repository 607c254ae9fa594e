package hotring

import (
	"bytes"
	"fmt"
	"testing"
)

// fullShard returns a one-shard cache filled exactly to capacity with
// keys [0, entries), each 32 bytes with its value, none of them read yet.
func fullShard(t *testing.T, entries int) *Cache {
	t.Helper()
	c := New(int64(32*entries), 1)
	val := make([]byte, 32-len(key(0)))
	for i := 0; i < entries; i++ {
		fill(c, key(i), val)
	}
	if st := c.Stats(); st.Entries != int64(entries) || st.Used != int64(32*entries) {
		t.Fatalf("set-up: %+v, want %d entries of 32 bytes", st, entries)
	}
	return c
}

// TestAdmissionDeclinesOneTimeReads: a full shard turns away a key read
// once — nothing is evicted and the fill returns nil — and lets it in on
// its second read.
func TestAdmissionDeclinesOneTimeReads(t *testing.T) {
	c := fullShard(t, 64)
	k, val := key(1000), []byte("twenty-three bytes long")
	for read := 1; read <= 2; read++ {
		if _, hit := c.Get(k); hit {
			t.Fatalf("read %d: hit before any fill was admitted", read)
		}
		v := c.FillIfUnchanged(k, val, c.BeginRead(k))
		st := c.Stats()
		switch {
		case read == 1 && (v != nil || st.Declined != 1 || st.Evictions != 0 || st.Entries != 64):
			t.Fatalf("first read: fill returned %q, %+v; want nil, 1 declined, nothing evicted", v, st)
		case read == 2 && (!bytes.Equal(v, val) || st.Declined != 1 || st.Evictions == 0):
			t.Fatalf("second read: fill returned %q, %+v; want the value, admitted over an eviction", v, st)
		}
	}
	if v, hit := c.Get(k); !hit || !bytes.Equal(v, val) {
		t.Fatalf("after admission: %q hit=%v", v, hit)
	}
	if st := c.Stats(); st.Used > 32*64 {
		t.Fatalf("used %d exceeds the shard's capacity", st.Used)
	}
}

// TestSketchAges: the counters halve every sketchWindowPerEntry Gets per
// entry, so a key read often long ago is declined until it is read again.
func TestSketchAges(t *testing.T) {
	const entries = 64
	c := fullShard(t, entries)
	old, other, val := key(1000), key(0), []byte("twenty-three bytes long")
	for i := 0; i < 4; i++ {
		c.Get(old)
	}
	// Three windows of reads of one resident key halve old's 4 to 0.
	for i := 0; i < 3*sketchWindowPerEntry*entries; i++ {
		c.Get(other)
	}
	if v := c.FillIfUnchanged(old, val, c.BeginRead(old)); v != nil {
		t.Fatal("a key last read three windows ago was admitted without new reads")
	}
	c.Get(old)
	if v := c.FillIfUnchanged(old, val, c.BeginRead(old)); v != nil {
		t.Fatal("a key read once since aging was admitted")
	}
	c.Get(old)
	if v := c.FillIfUnchanged(old, val, c.BeginRead(old)); v == nil {
		t.Fatal("a key read twice since aging was declined")
	}
	if st := c.Stats(); st.Declined != 2 {
		t.Fatalf("declined %d, want 2", st.Declined)
	}
}

// TestScanKeepsHotSet: one pass of cold keys through a full cache, each
// read once and offered as a fill, leaves the hot set resident. The sketch
// declines nearly all of them: a cold key is admitted only where
// collisions lift all four of its counters, which a scan of four times
// the cache's entries does for about one in a hundred. Admitting every
// miss would evict the hot set.
func TestScanKeepsHotSet(t *testing.T) {
	const entries = 64
	c := fullShard(t, entries)
	for round := 0; round < 4; round++ {
		for i := 0; i < entries; i++ {
			if _, hit := c.Get(key(i)); !hit {
				t.Fatalf("set-up: hot key %d missing", i)
			}
		}
	}
	val := make([]byte, 32-len(key(0)))
	const cold = 4 * entries
	for i := 1000; i < 1000+cold; i++ {
		if _, hit := c.Get(key(i)); hit {
			t.Fatalf("cold key %d hit", i)
		}
		fill(c, key(i), val)
	}
	for i := 0; i < entries; i++ {
		if _, hit := c.Get(key(i)); !hit {
			t.Errorf("hot key %d evicted by the scan", i)
		}
	}
	if st := c.Stats(); st.Declined < cold*95/100 {
		t.Fatalf("%+v: want at least 95%% of %d cold fills declined", st, cold)
	}
}

// FuzzCacheOps drives Get, BeginRead and FillIfUnchanged, Invalidate and
// InvalidateAll from the fuzzed bytes over a few keys in a cache small
// enough to evict and decline, and holds it to a model after every step:
// a hit returns the newest value filled and not invalidated since, each
// shard's used bytes are its entries' buffers and stay within capacity,
// and every Get is a hit or a miss.
func FuzzCacheOps(f *testing.F) {
	f.Add([]byte{0x40, 1, 0, 1, 1, 1, 2, 1, 0, 1, 3, 1, 0, 1, 4, 0})
	f.Add(bytes.Repeat([]byte{0x20, 0, 7, 1, 7, 2, 7, 0, 7}, 40))
	f.Add(bytes.Repeat([]byte{0xff, 1, 3, 2, 3, 0, 3, 3, 9, 5, 3, 1, 9, 2, 9}, 30))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		// The first byte picks the size: 64 to 1 KiB over one or two shards.
		c := New(int64(ops[0]&0x3f+1)*16, 1+int(ops[0]>>7))
		const keys = 12
		type read struct{ token, version uint64 } // a BeginRead not yet filled
		var (
			version [keys]uint64       // bumped by each write, i.e. Invalidate
			model   = map[int][]byte{} // newest value filled and not invalidated
			pending = map[int]read{}
			gets    int64
		)
		value := func(k int, ver uint64, size int) []byte {
			v := []byte(fmt.Sprintf("%d@%d:", k, ver))
			return append(v, bytes.Repeat([]byte{'v'}, size)...)
		}
		for i := 1; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%5, int(ops[i+1])
			k := arg % keys
			switch op {
			case 0:
				gets++
				v, hit := c.Get(key(k))
				if want, ok := model[k]; hit && (!ok || !bytes.Equal(v, want)) {
					t.Fatalf("op %d: key %d hit %q, want %q (in model: %v)", i, k, v, want, ok)
				}
			case 1:
				pending[k] = read{c.BeginRead(key(k)), version[k]}
			case 2:
				p, ok := pending[k]
				if !ok {
					p = read{c.BeginRead(key(k)), version[k]}
				}
				delete(pending, k)
				want := value(k, p.version, arg/keys)
				if v := c.FillIfUnchanged(key(k), want, p.token); v != nil {
					if !bytes.Equal(v, want) {
						t.Fatalf("op %d: fill of key %d returned %q, want %q", i, k, v, want)
					}
					if p.version != version[k] {
						t.Fatalf("op %d: a fill read before a write to key %d was installed", i, k)
					}
					model[k] = want
				}
			case 3:
				version[k]++
				delete(model, k)
				c.Invalidate(key(k))
			case 4:
				clear(model)
				c.InvalidateAll()
			}
			checkShards(t, c)
		}
		if st := c.Stats(); st.Hits+st.Misses != gets {
			t.Fatalf("%d hits + %d misses != %d gets", st.Hits, st.Misses, gets)
		}
	})
}

// checkShards walks every ring and checks each shard's used and entries
// match what its rings hold, and used is within the shard's capacity.
func checkShards(t *testing.T, c *Cache) {
	t.Helper()
	for i := range c.shards {
		s := &c.shards[i]
		var used, entries int64
		for _, head := range s.heads {
			for e := head; e != nil; {
				used += int64(len(e.kv))
				entries++
				if e = e.next; e == head {
					break
				}
			}
		}
		if used != s.used || entries != s.entries || s.used > c.perShardCap {
			t.Fatalf("shard %d: used %d entries %d, rings hold %d bytes in %d entries, capacity %d",
				i, s.used, s.entries, used, entries, c.perShardCap)
		}
	}
}
