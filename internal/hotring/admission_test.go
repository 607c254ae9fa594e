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

// FuzzCacheOps drives Get, BeginRead and FillIfUnchanged, BeginWrite, a
// write landing and EndWrite, and InvalidateAll from the fuzzed bytes over
// a few keys in a cache small enough to evict, decline fills and turn away
// oversize writes, and holds it to a model after every step. The model is
// the engine: each key's history of values (nil for absent), a read that
// takes the value current at its BeginRead, and writes that land in any
// order, each at any point between its BeginWrite and its EndWrite. A hit on a key with
// no write open returns the key's current value; with writes open, a
// value the key held since the oldest of them began. Each shard's used
// bytes are its entries' buffers and stay within capacity, and every Get
// is a hit or a miss.
func FuzzCacheOps(f *testing.F) {
	f.Add([]byte{0x40, 1, 0, 1, 1, 1, 2, 1, 0, 1, 3, 1, 0, 1, 4, 0})
	f.Add(bytes.Repeat([]byte{0x20, 0, 7, 1, 7, 2, 7, 0, 7}, 40))
	f.Add(bytes.Repeat([]byte{0xff, 1, 3, 2, 3, 0, 3, 3, 9, 5, 3, 1, 9, 2, 9}, 30))
	f.Add(bytes.Repeat([]byte{0x30, 2, 1, 0, 1, 3, 1, 3, 13, 4, 1, 0, 1, 5, 13, 5, 1, 0, 1}, 20))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		// The first byte picks the size: 64 to 1 KiB over one or two shards.
		c := New(int64(ops[0]&0x3f+1)*16, 1+int(ops[0]>>7))
		const keys = 12
		type read struct {
			token uint64
			value []byte // the engine's value at BeginRead
		}
		type pending struct {
			token  uint64
			value  []byte
			since  int // index into history when the write began
			landed bool
		}
		var (
			history [keys][][]byte // every value each key held; nil is absent
			reads   = map[int]read{}
			writes  [keys][]*pending // open writes, oldest first
			made    int
			gets    int64
		)
		for k := range history {
			history[k] = [][]byte{nil}
		}
		current := func(k int) []byte { return history[k][len(history[k])-1] }
		for i := 1; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%6, int(ops[i+1])
			k := arg % keys
			switch op {
			case 0:
				gets++
				v, hit := c.Get(key(k))
				if !hit {
					break
				}
				since := len(history[k]) - 1
				if len(writes[k]) > 0 {
					since = writes[k][0].since
				}
				ok := false
				for _, h := range history[k][since:] {
					ok = ok || (h != nil && bytes.Equal(v, h))
				}
				if !ok {
					t.Fatalf("op %d: key %d hit %q, held since: %q", i, k, v, history[k][since:])
				}
			case 1:
				reads[k] = read{c.BeginRead(key(k)), current(k)}
			case 2:
				rd, ok := reads[k]
				if !ok {
					rd = read{c.BeginRead(key(k)), current(k)}
				}
				delete(reads, k)
				if rd.value == nil {
					break // only found values are cached
				}
				if v := c.FillIfUnchanged(key(k), rd.value, rd.token); v != nil && !bytes.Equal(v, rd.value) {
					t.Fatalf("op %d: fill of key %d returned %q, want %q", i, k, v, rd.value)
				}
			case 3:
				made++
				var v []byte
				if size := arg / keys; size%5 != 4 { // else a delete
					v = append([]byte(fmt.Sprintf("%d#%d:", k, made)), bytes.Repeat([]byte{'v'}, size*3)...)
				}
				writes[k] = append(writes[k], &pending{c.BeginWrite(key(k)), v, len(history[k]) - 1, false})
			case 4: // an open write of k that has not landed lands
				if n := len(writes[k]); n > 0 {
					if w := writes[k][arg/keys%n]; !w.landed {
						w.landed = true
						history[k] = append(history[k], w.value)
					}
				}
			case 5: // an open write of k ends, landing first if it had not
				n := len(writes[k])
				if n == 0 {
					break
				}
				j := arg / keys % n
				w := writes[k][j]
				writes[k] = append(writes[k][:j], writes[k][j+1:]...)
				if !w.landed {
					history[k] = append(history[k], w.value)
				}
				c.EndWrite(key(k), w.value, w.token)
			}
			if arg == 0xff {
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
