package fs

import (
	"bytes"
	"container/list"
	"math/rand"
	"testing"

	"kvaccel/internal/fold"
	"kvaccel/internal/vclock"
)

// listLRU is the page cache's bookkeeping as it stood before the
// intrusive list: a map of container/list elements, front most recent.
// The tests below hold the replacement to its hits, misses and evictions.
type listLRU struct {
	cap    int
	cached map[int]*list.Element
	lru    *list.List
}

func newListLRU(cap int) *listLRU {
	return &listLRU{cap: cap, cached: make(map[int]*list.Element), lru: list.New()}
}

func (m *listLRU) insert(lpns []int) {
	for _, lpn := range lpns {
		if el, ok := m.cached[lpn]; ok {
			m.lru.MoveToFront(el)
			continue
		}
		m.cached[lpn] = m.lru.PushFront(lpn)
	}
	for m.cap > 0 && len(m.cached) > m.cap {
		back := m.lru.Back()
		delete(m.cached, back.Value.(int))
		m.lru.Remove(back)
	}
}

func (m *listLRU) drop(lpns []int) {
	for _, lpn := range lpns {
		if el, ok := m.cached[lpn]; ok {
			delete(m.cached, lpn)
			m.lru.Remove(el)
		}
	}
}

func (m *listLRU) split(lpns []int) (misses []int) {
	for _, lpn := range lpns {
		if el, ok := m.cached[lpn]; ok {
			m.lru.MoveToFront(el)
			continue
		}
		misses = append(misses, lpn)
	}
	return misses
}

// order lists the resident pages, most recent first.
func (m *listLRU) order() []int {
	var out []int
	for el := m.lru.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(int))
	}
	return out
}

func (l *pageLRU) order() []int {
	var out []int
	for id := l.head; id != 0; id = l.next[id-1] {
		out = append(out, int(id-1))
	}
	return out
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPageCacheMatchesListLRU runs insert / touch / evict / drop sequences
// under a 4-page cap through the file system's cache and the old
// map-and-list model, comparing misses and the full recency order after
// every step: a fixed table first, then seeded random sequences.
func TestPageCacheMatchesListLRU(t *testing.T) {
	type step struct {
		op   string // insert, read (split then insert the misses, as readAt does), drop
		lpns []int
	}
	table := []step{
		{"insert", []int{1, 2, 3}},
		{"read", []int{2}},          // touch: 2 becomes most recent
		{"insert", []int{4, 5}},     // over the cap: evicts 1, the least recent
		{"read", []int{1, 3}},       // 1 misses (its insert evicts the coldest), 3 hits
		{"drop", []int{5, 9}},       // 9 was never resident
		{"insert", []int{3, 3, 6}},  // duplicates within one call
		{"drop", []int{1, 3, 4, 6}}, // down to empty
		{"read", []int{7}},
		{"insert", []int{0, 1, 2, 3, 4, 5, 6, 7}}, // one call larger than the cap
	}
	check := func(name string, steps []step) {
		fsys := New(&fakeDev{pageSize: 4096, pages: 16})
		fsys.SetPageCacheBytes(4 * 4096)
		model := newListLRU(4)
		for i, st := range steps {
			switch st.op {
			case "insert":
				fsys.cacheInsert(st.lpns)
				model.insert(st.lpns)
			case "read":
				got, want := fsys.splitCached(st.lpns), model.split(st.lpns)
				if !sameInts(got, want) {
					t.Fatalf("%s step %d %v: misses %v, the list model's %v", name, i, st, got, want)
				}
				fsys.cacheInsert(got)
				model.insert(want)
			case "drop":
				fsys.cacheDrop(st.lpns)
				model.drop(st.lpns)
			}
			if got, want := fsys.cached.order(), model.order(); !sameInts(got, want) || fsys.CachedPages() != len(want) {
				t.Fatalf("%s step %d %v: recency order %v (%d pages), the list model's %v",
					name, i, st, got, fsys.CachedPages(), want)
			}
		}
	}
	check("table", table)
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		steps := make([]step, 300)
		for i := range steps {
			lpns := make([]int, 1+rng.Intn(3))
			for j := range lpns {
				lpns[j] = rng.Intn(10)
			}
			steps[i] = step{[]string{"insert", "read", "read", "drop"}[rng.Intn(4)], lpns}
		}
		check("random", steps)
	}
}

// TestPageCacheShrinkAndCrash: lowering the cap evicts from the cold end
// at once, and a crash empties the cache.
func TestPageCacheShrinkAndCrash(t *testing.T) {
	fsys := New(&fakeDev{pageSize: 4096, pages: 16})
	fsys.cacheInsert([]int{1, 2, 3, 4, 5, 6})
	fsys.SetPageCacheBytes(2 * 4096)
	if got := fsys.cached.order(); !sameInts(got, []int{6, 5}) {
		t.Fatalf("after shrinking to 2 pages: %v, want [6 5]", got)
	}
	fsys.Crash(nil)
	if fsys.CachedPages() != 0 || fsys.cached.contains(6) {
		t.Fatal("crash left pages resident")
	}
	fsys.cacheInsert([]int{7})
	if got := fsys.cached.order(); !sameInts(got, []int{7}) {
		t.Fatalf("after crash and one insert: %v", got)
	}
}

// TestWriteFileOwnsImage pins the hand-over contract: the image is not
// copied (a tight buffer becomes the file's bytes), its capacity is
// clipped so appending to the file cannot write into the caller's slack,
// and a buffer with more than an eighth of slack is traded for a tight
// one so a short file does not pin a table-sized buffer.
func TestWriteFileOwnsImage(t *testing.T) {
	fsys, _ := newTestFS()
	run(t, func(r *vclock.Runner) {
		tight := bytes.Repeat([]byte{7}, 9000)
		if err := fsys.WriteFile(r, "tight", fold.Literal(tight)); err != nil {
			t.Fatal(err)
		}
		if d := fsys.files["tight"].exts[0].p.Lit(); &d[0] != &tight[0] || cap(d) != len(tight) {
			t.Errorf("a tight image was copied or kept its capacity (cap %d)", cap(d))
		}

		buf := make([]byte, 9000, 10000) // a ninth of slack: kept, clipped
		copy(buf[:cap(buf)], bytes.Repeat([]byte{1}, 10000))
		if err := fsys.WriteFileBackground(r, "f", fold.Literal(buf)); err != nil {
			t.Fatal(err)
		}
		if err := fsys.Append(r, "f", []byte("tail")); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf[9000:10000], bytes.Repeat([]byte{1}, 1000)) {
			t.Error("appending to the file wrote into the caller's slack")
		}
		got, err := fsys.ReadFile(r, "f")
		if err != nil || len(got) != 9004 || string(got[9000:]) != "tail" {
			t.Errorf("read back %d bytes, err %v", len(got), err)
		}

		loose := make([]byte, 100, 1<<20)
		if err := fsys.WriteFile(r, "loose", fold.Literal(loose)); err != nil {
			t.Fatal(err)
		}
		if d := fsys.files["loose"].exts[0].p.Lit(); cap(d) != 100 {
			t.Errorf("a 100-byte file pins a buffer of %d bytes", cap(d))
		}
	})
}

// TestAppendChunksIsOneWrite: a chunk list lands as the joined bytes with
// a single device write covering the pages a joined append would touch,
// and each chunk becomes an extent of the file under WriteFile's hand-over
// rule: not copied, capacity clipped, tightened when loose.
func TestAppendChunksIsOneWrite(t *testing.T) {
	chunks := [][]byte{bytes.Repeat([]byte{'a'}, 3000), nil, bytes.Repeat([]byte{'b'}, 5000), []byte("c")}
	joined := bytes.Join(chunks, nil)

	var calls [2][][]int
	var images [2][]byte
	for i, appendIt := range []func(*FileSystem, *vclock.Runner) error{
		func(f *FileSystem, r *vclock.Runner) error { return f.Append(r, "log", chunks...) },
		func(f *FileSystem, r *vclock.Runner) error { return f.Append(r, "log", joined) },
	} {
		dev := &recordingDev{fakeDev: fakeDev{pageSize: 4096, pages: 64}}
		fsys := New(dev)
		run(t, func(r *vclock.Runner) {
			if err := fsys.Append(r, "log", make([]byte, 100)); err != nil { // a partial tail page to rewrite
				t.Fatal(err)
			}
			dev.calls = nil
			if err := appendIt(fsys, r); err != nil {
				t.Fatal(err)
			}
			images[i], _ = fsys.ReadFile(r, "log")
		})
		calls[i] = dev.calls
	}
	if len(calls[0]) != 1 || len(calls[1]) != 1 || !sameInts(calls[0][0], calls[1][0]) {
		t.Errorf("chunked append issued writes %v, joined append %v", calls[0], calls[1])
	}
	if !bytes.Equal(images[0], images[1]) || !bytes.Equal(images[0][100:], joined) {
		t.Error("chunked append stored different bytes")
	}
	fsys := New(&fakeDev{pageSize: 4096, pages: 64})
	run(t, func(r *vclock.Runner) {
		buf := make([]byte, 9000, 10000) // a ninth of slack: kept, clipped
		copy(buf[:cap(buf)], bytes.Repeat([]byte{1}, 10000))
		loose := make([]byte, 100, 1<<20)
		if err := fsys.Append(r, "x", buf, nil, loose); err != nil {
			t.Fatal(err)
		}
		exts := fsys.files["x"].exts
		if len(exts) != 2 || exts[0].end != 9000 || exts[1].end != 9100 {
			t.Fatalf("extents %d, want the two non-empty chunks ending at 9000 and 9100", len(exts))
		}
		if d := exts[0].p.Lit(); &d[0] != &buf[0] || cap(d) != len(buf) {
			t.Errorf("a tight chunk was copied or kept its capacity (cap %d)", cap(d))
		}
		if d := exts[1].p.Lit(); &d[0] == &loose[0] || cap(d) != 100 {
			t.Errorf("a 100-byte chunk pins a buffer of %d bytes", cap(d))
		}
		if err := fsys.Append(r, "x", []byte("tail")); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf[9000:10000], bytes.Repeat([]byte{1}, 1000)) {
			t.Error("a later append wrote into the caller's slack")
		}
		if err := fsys.Append(r, "x"); err != nil || fsys.files["x"].size() != 9104 {
			t.Errorf("empty append: err %v", err)
		}
	})
}

// recordingDev records the LPN list of every write command.
type recordingDev struct {
	fakeDev
	calls [][]int
}

func (d *recordingDev) WritePages(r *vclock.Runner, lpns []int) error {
	d.calls = append(d.calls, append([]int(nil), lpns...))
	return d.fakeDev.WritePages(r, lpns)
}

// TestAllocsPageCache: residency is tracked in slices indexed by LPN, so
// once they exist, marking pages resident, touching them and evicting
// allocates nothing — the list-and-map version made an element and a
// boxed int per page.
func TestAllocsPageCache(t *testing.T) {
	fsys := New(&fakeDev{pageSize: 4096, pages: 1024})
	fsys.SetPageCacheBytes(64 * 4096)
	lpns := make([]int, 16)
	next := 0
	n := testing.AllocsPerRun(200, func() {
		for i := range lpns {
			lpns[i] = next % 1024
			next += 7
		}
		fsys.cacheInsert(lpns) // evicts once the cache is full
		if misses := fsys.splitCached(lpns); len(misses) != 0 {
			t.Fatalf("pages just inserted missed: %v", misses)
		}
	})
	if n != 0 {
		t.Errorf("%v allocations per insert-and-touch of 16 pages, want 0", n)
	}
}
