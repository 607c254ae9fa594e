package hotring

import (
	"fmt"
	"testing"
)

func key(i int) []byte { return []byte(fmt.Sprintf("key%06d", i)) }

func fill(c *Cache, k, v []byte) {
	c.FillIfUnchanged(k, v, c.BeginRead(k))
}

// write runs one write of k that no other write overlaps; a nil v is a
// delete.
func write(c *Cache, k, v []byte) {
	c.EndWrite(k, v, c.BeginWrite(k))
}

// readTwiceAndFill reads k twice, so that the admission sketch lets it
// into a full shard, and fills it.
func readTwiceAndFill(c *Cache, k, v []byte) {
	c.Get(k)
	c.Get(k)
	fill(c, k, v)
}

func TestBasicFillGetInvalidate(t *testing.T) {
	c := New(1<<20, 4)
	if _, ok := c.Get(key(1)); ok {
		t.Fatal("empty cache hit")
	}
	fill(c, key(1), []byte("v1"))
	v, ok := c.Get(key(1))
	if !ok || string(v) != "v1" {
		t.Fatalf("get after fill: %q %v", v, ok)
	}
	// Overwrite through a fresh fill.
	fill(c, key(1), []byte("v2"))
	if v, _ := c.Get(key(1)); string(v) != "v2" {
		t.Fatalf("get after refill: %q", v)
	}
	write(c, key(1), []byte("v3")) // through the resident entry
	if v, _ := c.Get(key(1)); string(v) != "v3" {
		t.Fatalf("get after a write: %q", v)
	}
	write(c, key(1), nil) // a delete
	if _, ok := c.Get(key(1)); ok {
		t.Fatal("hit after a delete")
	}
	write(c, key(1), []byte("v4")) // absent: not admitted
	if _, ok := c.Get(key(1)); ok {
		t.Fatal("a write admitted an absent key")
	}
	st := c.Stats()
	if st.Hits != 3 || st.Misses != 3 || st.Fills != 2 || st.Updates != 1 || st.Invalidations != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestGenerationGuard pins the write-vs-fill race rule: a fill whose
// BeginRead token predates a write on the same shard must be dropped, or
// a slow reader would resurrect a stale value over a newer write.
func TestGenerationGuard(t *testing.T) {
	c := New(1<<20, 1) // one shard: every key shares the generation
	tok := c.BeginRead(key(1))
	write(c, key(2), []byte("w")) // the concurrent write, to another key
	c.FillIfUnchanged(key(1), []byte("stale"), tok)
	if _, ok := c.Get(key(1)); ok {
		t.Fatal("stale fill installed past an invalidation")
	}
	if st := c.Stats(); st.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", st.Rejected)
	}
	// A fresh token after the write fills normally.
	fill(c, key(1), []byte("fresh"))
	if v, ok := c.Get(key(1)); !ok || string(v) != "fresh" {
		t.Fatalf("fresh fill: %q %v", v, ok)
	}
}

func TestInvalidateAll(t *testing.T) {
	c := New(1<<20, 4)
	for i := 0; i < 100; i++ {
		fill(c, key(i), []byte("v"))
	}
	tok := c.BeginRead(key(7))
	c.InvalidateAll()
	for i := 0; i < 100; i++ {
		if _, ok := c.Get(key(i)); ok {
			t.Fatalf("key %d survived InvalidateAll", i)
		}
	}
	c.FillIfUnchanged(key(7), []byte("stale"), tok)
	if _, ok := c.Get(key(7)); ok {
		t.Fatal("stale fill installed past InvalidateAll")
	}
	if st := c.Stats(); st.Entries != 0 || st.Used != 0 {
		t.Fatalf("occupancy after InvalidateAll: %+v", st)
	}
}

// TestCapacityEviction fills far past capacity and checks the cache
// stays bounded while still serving recent traffic.
func TestCapacityEviction(t *testing.T) {
	capacity := int64(16 << 10)
	c := New(capacity, 2)
	val := make([]byte, 128)
	for i := 0; i < 1000; i++ {
		readTwiceAndFill(c, key(i), val)
	}
	st := c.Stats()
	if st.Used > capacity {
		t.Fatalf("used %d exceeds capacity %d", st.Used, capacity)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions despite overfill")
	}
	if st.Entries == 0 {
		t.Fatal("cache emptied itself")
	}
}

// TestHotKeyStaysResident drives a zipf-ish pattern: hot keys read
// constantly among churning cold fills must stay resident (their sample
// counts never reach zero) while cold entries cycle out.
func TestHotKeyStaysResident(t *testing.T) {
	c := New(8<<10, 1)
	hot := key(0)
	fill(c, hot, []byte("hotvalue"))
	val := make([]byte, 64)
	for i := 1; i < 2000; i++ {
		for j := 0; j < 4; j++ {
			if _, ok := c.Get(hot); !ok {
				t.Fatalf("hot key evicted at fill %d", i)
			}
		}
		readTwiceAndFill(c, key(i), val)
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatal("cold churn produced no evictions")
	}
}

// TestHeadMigratesToHotEntry builds long collision rings (one shard,
// thousands of keys across 256 buckets) and hammers a subset so their
// access counts out-run their ring heads': the HotRing head-migration
// rule must fire.
func TestHeadMigratesToHotEntry(t *testing.T) {
	c := New(1<<20, 1)
	for i := 0; i < 4096; i++ {
		fill(c, key(i), []byte("v"))
	}
	// 64 hot keys: even if a few happen to already be their ring's head,
	// most are mid-ring and must trigger a migration.
	for round := 0; round < 32; round++ {
		for i := 0; i < 64; i++ {
			if _, ok := c.Get(key(i * 61)); !ok {
				t.Fatalf("hot key %d missing", i*61)
			}
		}
	}
	if st := c.Stats(); st.HeadMoves == 0 {
		t.Fatal("head pointer never migrated to a hot entry")
	}
}

// TestOrderedRingFindAbsent exercises the ordered-ring early-termination
// path: lookups for absent keys that collide into populated buckets must
// return miss, never loop.
func TestOrderedRingFindAbsent(t *testing.T) {
	c := New(1<<20, 1)
	for i := 0; i < 4096; i++ {
		fill(c, key(i), []byte("v"))
	}
	for i := 5000; i < 9096; i++ {
		if _, ok := c.Get(key(i)); ok {
			t.Fatalf("phantom hit for absent key %d", i)
		}
	}
	for i := 0; i < 4096; i += 97 {
		if v, ok := c.Get(key(i)); !ok || string(v) != "v" {
			t.Fatalf("resident key %d lost: %q %v", i, v, ok)
		}
	}
}

// TestNilCacheIsDisabled pins the nil-cache contract core relies on when
// the front cache is turned off.
func TestNilCacheIsDisabled(t *testing.T) {
	var c *Cache
	if c != New(0, 4) {
		t.Fatal("capacity 0 should return the nil disabled cache")
	}
	if _, ok := c.Get(key(1)); ok {
		t.Fatal("nil cache hit")
	}
	c.FillIfUnchanged(key(1), []byte("v"), c.BeginRead(key(1)))
	write(c, key(1), []byte("w"))
	c.InvalidateAll()
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil cache stats: %+v", st)
	}
}

// TestLookupViewsNeverChange: Get hands out a view of the entry's buffer,
// not a copy, so nothing the cache does afterwards may write into it —
// re-filling the key, a write through it, a delete, InvalidateAll, or
// evicting the entry and reusing its struct for other keys' fills, whose
// buffers would fit in the old one.
func TestLookupViewsNeverChange(t *testing.T) {
	c := New(256, 1) // one small shard: later fills evict everything held
	type held struct {
		v    []byte
		want string
	}
	var views []held
	look := func(k []byte, want string) {
		t.Helper()
		v, hit := c.Get(k)
		if !hit || string(v) != want {
			t.Fatalf("lookup %s: %q hit=%v, want %q", k, v, hit, want)
		}
		views = append(views, held{v, want})
	}
	// Each value is shorter than the one before it, so a cache that wrote
	// new bytes into an old buffer would find room there.
	fill(c, key(1), []byte("first-fill"))
	look(key(1), "first-fill")
	fill(c, key(1), []byte("refill"))
	look(key(1), "refill")
	write(c, key(1), []byte("write"))
	look(key(1), "write")
	fill(c, key(2), []byte("second"))
	look(key(2), "second")
	write(c, key(2), nil)
	fill(c, key(2), []byte("inv"))
	look(key(2), "inv")
	c.InvalidateAll()
	fill(c, key(3), []byte("after-all"))
	look(key(3), "after-all")
	fill(c, key(4), []byte("evicted"))
	look(key(4), "evicted")
	before := c.Stats().Evictions
	for i := 100; i < 2100; i++ {
		readTwiceAndFill(c, key(i), []byte("zz"))
	}
	if c.Stats().Evictions == before {
		t.Fatal("no evictions: the test no longer reuses the held entries")
	}
	for _, k := range [][]byte{key(1), key(2), key(3), key(4)} {
		if _, hit := c.Get(k); hit {
			t.Fatalf("%s still resident: the test no longer evicts what it holds", k)
		}
	}
	for _, h := range views {
		if string(h.v) != h.want {
			t.Errorf("a view of %q now reads %q", h.want, h.v)
		}
	}
}

// TestFillCopiesKeyAndValue: a fill keeps copies, not the caller's
// buffers, so the caller may reuse them at once — with an empty value
// too, where the copy holds the key alone.
func TestFillCopiesKeyAndValue(t *testing.T) {
	for _, value := range []string{"value", ""} {
		c := New(1<<20, 1)
		k, v := append(make([]byte, 0, 64), "key"...), append(make([]byte, 0, 64), value...)
		fill(c, k, v)
		copy(k, "xxx")
		for i := range v {
			v[i] = 'x'
		}
		got, hit := c.Get([]byte("key"))
		if !hit || string(got) != value || got == nil {
			t.Errorf("value %q: after the caller reused its buffers, Get = %q hit=%v nil=%v", value, got, hit, got == nil)
		}
		if _, hit := c.Get([]byte("xxx")); hit {
			t.Errorf("value %q: the cache kept the caller's key buffer", value)
		}
	}
	// The buffer is at most the size class of the bytes it holds, which is
	// what the shard's byte budget charges, whether the value is shorter
	// than the key, longer, or empty.
	for _, kv := range [][2]int{{24, 8}, {24, 24}, {8, 120}, {24, 0}, {0, 0}} {
		var e entry
		k, v := make([]byte, kv[0]), make([]byte, kv[1])
		e.fillKV(k, v)
		n := kv[0] + kv[1]
		sizeClass := cap(append([]byte(nil), make([]byte, n)...))
		if len(e.kv) != n || cap(e.kv) > sizeClass {
			t.Errorf("key %d B, value %d B: buffer len %d cap %d, want len %d cap <= %d",
				kv[0], kv[1], len(e.kv), cap(e.kv), n, sizeClass)
		}
	}
}

// TestWriteThroughTokenRules pins when a write's end refreshes a resident
// entry and when it drops it. Every case runs on one shard, so every key
// shares the generation.
func TestWriteThroughTokenRules(t *testing.T) {
	k, other := key(1), key(2)
	old, cur := []byte("old"), []byte("new")
	cases := []struct {
		name string
		run  func(t *testing.T, c *Cache)
		want []byte // what Get finds afterwards; nil is a miss
	}{
		{"a write no other write overlaps refreshes the entry", func(t *testing.T, c *Cache) {
			fill(c, k, old)
			tok := c.BeginWrite(k)
			c.EndWrite(k, cur, tok)
		}, cur},
		{"a write that began and ended inside drops the entry", func(t *testing.T, c *Cache) {
			fill(c, k, old)
			tok := c.BeginWrite(k)
			write(c, other, []byte("x"))
			c.EndWrite(k, cur, tok)
		}, nil},
		{"a write open from before drops the entry when it ends", func(t *testing.T, c *Cache) {
			fill(c, k, old)
			earlier := c.BeginWrite(k)
			tok := c.BeginWrite(k)
			c.EndWrite(k, cur, tok)
			c.EndWrite(k, []byte("landed-last"), earlier)
		}, nil},
		{"a read that began before the write cannot fill after it", func(t *testing.T, c *Cache) {
			rt := c.BeginRead(k)
			write(c, k, cur)
			c.FillIfUnchanged(k, old, rt)
		}, nil},
		{"a read that began during the write cannot fill after it", func(t *testing.T, c *Cache) {
			tok := c.BeginWrite(k)
			rt := c.BeginRead(k)
			c.EndWrite(k, cur, tok)
			c.FillIfUnchanged(k, old, rt)
		}, nil},
		{"a fill during the write is refreshed by its end", func(t *testing.T, c *Cache) {
			tok := c.BeginWrite(k)
			fill(c, k, old)
			c.EndWrite(k, cur, tok)
		}, cur},
		{"an oversize value drops the entry", func(t *testing.T, c *Cache) {
			fill(c, k, old)
			write(c, k, make([]byte, 512))
		}, nil},
		{"a nil value drops the entry", func(t *testing.T, c *Cache) {
			fill(c, k, old)
			write(c, k, nil)
		}, nil},
		{"an absent key is not admitted", func(t *testing.T, c *Cache) {
			write(c, k, cur)
		}, nil},
		{"after InvalidateAll the write end installs nothing", func(t *testing.T, c *Cache) {
			fill(c, k, old)
			tok := c.BeginWrite(k)
			c.InvalidateAll()
			fill(c, k, old)
			c.EndWrite(k, cur, tok)
		}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New(256, 1)
			tc.run(t, c)
			v, hit := c.Get(k)
			if hit != (tc.want != nil) || string(v) != string(tc.want) {
				t.Fatalf("Get = %q hit=%v, want %q hit=%v", v, hit, tc.want, tc.want != nil)
			}
			checkShards(t, c)
		})
	}
}
