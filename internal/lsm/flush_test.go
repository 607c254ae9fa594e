package lsm

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"sort"
	"testing"

	"kvaccel/internal/encoding"
	"kvaccel/internal/memtable"
	"kvaccel/internal/sstable"
	"kvaccel/internal/vclock"
)

// flushedL0 returns the bytes of the one L0 table a flush left behind,
// or nil after reporting why there is none.
func flushedL0(t *testing.T, r *vclock.Runner, db *DB) []byte {
	t.Helper()
	l0 := db.vers.levels[0]
	if len(l0) != 1 {
		t.Errorf("%d L0 tables after one flush, want 1", len(l0))
		return nil
	}
	data, err := db.fsys.ReadFile(r, l0[0].Name())
	if err != nil {
		t.Error(err)
	}
	return data
}

// goldenFlushSHA256 is the digest of the table the builder before the
// flush merge wrote for the unique-key memtable of TestGoldenFlushBytes.
const goldenFlushSHA256 = "5a649c4928b35d4757879e89f4fa9df3415c38e2e8eb562f93c9f4a70273a724"

// TestGoldenFlushBytes: a memtable whose keys are all distinct flushes
// to the bytes the flush wrote before it ran through the compaction
// merge — inline puts, separated values and tombstones alike.
func TestGoldenFlushBytes(t *testing.T) {
	opt := vlogOpts()
	opt.MemtableSize = 1 << 20
	clk, db := newTestDB(0, opt)
	var sum [32]byte
	clk.Go("golden", func(r *vclock.Runner) {
		defer db.Close()
		for i := 0; i < 600; i++ {
			var err error
			switch i % 5 {
			case 0:
				err = db.Delete(r, key(i))
			case 1, 2:
				err = db.Put(r, key(i), bigValue(i))
			default:
				err = db.Put(r, key(i), value(i)[:i%120])
			}
			if err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
		}
		if err := db.Flush(r); err != nil {
			t.Error(err)
			return
		}
		sum = sha256.Sum256(flushedL0(t, r, db))
	})
	clk.Wait()
	if got := hex.EncodeToString(sum[:]); got != goldenFlushSHA256 {
		t.Errorf("flushed table digest %s, want %s", got, goldenFlushSHA256)
	}
}

// flushModel is what a small keyspace written many times should read
// back: each key's newest value (absent after a delete) and sequence
// number.
type flushModel struct {
	value map[string][]byte
	seq   map[string]uint64
}

// live returns the model's present keys in order.
func (m flushModel) live() []string {
	var keys []string
	for k, v := range m.value {
		if v != nil {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// overwrite writes n records over keys user keys into db's memtable —
// inline puts, separated values and tombstones — and returns the model
// and the value-log bytes of the separated versions a newer write of
// their key hides.
func overwrite(r *vclock.Runner, db *DB, seed int64, n, keys int) (m flushModel, hidden int64, err error) {
	m = flushModel{value: map[string][]byte{}, seq: map[string]uint64{}}
	rng := rand.New(rand.NewSource(seed))
	separated := map[string]int64{} // the frame length of a key's newest separated value
	for i := 0; i < n; i++ {
		k := key(rng.Intn(keys))
		var v []byte
		switch rng.Intn(6) {
		case 0:
			err = db.Delete(r, k)
		case 1, 2:
			v = append(bigValue(i), byte(i), byte(i>>8))
			err = db.Put(r, k, v)
		default:
			v = value(i)[:1+rng.Intn(100)]
			err = db.Put(r, k, v)
		}
		if err != nil {
			return m, 0, err
		}
		hidden += separated[string(k)]
		separated[string(k)] = 0
		if len(v) >= db.opt.ValueThreshold {
			separated[string(k)] = int64(encoding.FrameHeader + encoding.UvarintLen(uint64(len(k))) + len(k) + len(v))
		}
		m.value[string(k)], m.seq[string(k)] = v, db.seq
	}
	return m, hidden, nil
}

// readsModel checks every key's Get and a full iterator against m.
func readsModel(t *testing.T, r *vclock.Runner, db *DB, m flushModel, stage string) {
	t.Helper()
	for k, v := range m.value {
		got, ok, err := db.Get(r, []byte(k))
		if err != nil || ok != (v != nil) || !bytes.Equal(got, v) {
			t.Errorf("%s: Get(%s) = %d bytes, ok=%v, err=%v; want %d bytes, ok=%v", stage, k, len(got), ok, err, len(v), v != nil)
		}
	}
	live := m.live()
	it := db.NewIterator(r)
	defer it.Close()
	i := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if i >= len(live) || string(it.Key()) != live[i] || !bytes.Equal(it.Value(), m.value[live[i]]) {
			t.Errorf("%s: iterator record %d is %s, unlike the model", stage, i, it.Key())
			return
		}
		i++
	}
	if it.Err() != nil || i != len(live) {
		t.Errorf("%s: iterator yielded %d keys (err %v), want %d", stage, i, it.Err(), len(live))
	}
}

// TestFlushKeepsNewestVersion: a memtable holding a small keyspace
// written many times flushes one record per user key, its newest version
// — tombstones and value pointers included — and books the value-log
// bytes of the hidden pointers as discarded. Get and an iterator read the
// model back after the flush and after a Reopen.
func TestFlushKeepsNewestVersion(t *testing.T) {
	opt := vlogOpts()
	opt.MemtableSize = 1 << 20
	clk, db := newTestDB(0, opt)
	var m flushModel
	clk.Go("flush", func(r *vclock.Runner) {
		defer db.Close()
		var hidden int64
		var err error
		if m, hidden, err = overwrite(r, db, 1, 3000, 60); err != nil {
			t.Error(err)
			return
		}
		if hidden == 0 {
			t.Error("no separated value was overwritten: the input tests nothing")
		}
		if err := db.Flush(r); err != nil {
			t.Error(err)
			return
		}
		data := flushedL0(t, r, db)
		rd, err := sstable.Open(nil, byteSource(data))
		if err != nil {
			t.Error(err)
			return
		}
		kinds := map[memtable.Kind]int{}
		n := 0
		it := rd.NewIterator(nil)
		for it.SeekToFirst(); it.Valid(); it.Next() {
			e := it.Entry()
			if seq, ok := m.seq[string(e.Key)]; !ok || e.Seq != seq {
				t.Errorf("flushed (%s, seq %d); the key's newest seq is %d", e.Key, e.Seq, seq)
			}
			kinds[e.Kind]++
			n++
		}
		if n != len(m.seq) {
			t.Errorf("flushed %d records for %d user keys", n, len(m.seq))
		}
		if kinds[memtable.KindPut] == 0 || kinds[memtable.KindDelete] == 0 || kinds[memtable.KindValuePtr] == 0 {
			t.Errorf("flushed kinds %v: want puts, tombstones and value pointers", kinds)
		}
		if got := db.Stats().VLogDiscardBytes; got != hidden {
			t.Errorf("VLogDiscardBytes = %d, want %d, the hidden separated records' lengths", got, hidden)
		}
		readsModel(t, r, db, m, "after flush")
	})
	clk.Wait()

	clk2 := vclock.New()
	clk2.Go("reopen", func(r *vclock.Runner) {
		db2, err := Reopen(r, clk2, db.fsys, opt)
		if err != nil {
			t.Error(err)
			return
		}
		defer db2.Close()
		readsModel(t, r, db2, m, "after reopen")
	})
	clk2.Wait()
}

// TestRecoveryFlushKeepsNewestVersion: WAL replay refills a memtable with
// every logged version; the recovery flush writes only the newest of
// each key, and the reopened DB reads the model back.
func TestRecoveryFlushKeepsNewestVersion(t *testing.T) {
	opt := vlogOpts()
	opt.MemtableSize = 1 << 20
	clk, db := newTestDB(0, opt)
	var m flushModel
	clk.Go("write", func(r *vclock.Runner) {
		// A flushed base gives the crash a manifest to reopen.
		if err := db.Put(r, []byte("base"), []byte("v")); err != nil {
			t.Error(err)
			return
		}
		if err := db.Flush(r); err != nil {
			t.Error(err)
			return
		}
		var err error
		if m, _, err = overwrite(r, db, 2, 2000, 40); err != nil {
			t.Error(err)
			return
		}
		// Make the log and the values durable, then crash unflushed.
		if err := db.vlog.Sync(r); err != nil {
			t.Error(err)
		}
		if err := db.log.Sync(r); err != nil {
			t.Error(err)
		}
		db.Close()
	})
	clk.Wait()

	clk2 := vclock.New()
	clk2.Go("recover", func(r *vclock.Runner) {
		db2, err := Reopen(r, clk2, db.fsys, opt)
		if err != nil {
			t.Error(err)
			return
		}
		defer db2.Close()
		if l0 := db2.vers.levels[0]; len(l0) != 2 || l0[1].Entries != len(m.seq) {
			t.Errorf("L0 holds %d tables after recovery; want the base and one of %d records", len(l0), len(m.seq))
		}
		m.value["base"] = []byte("v")
		readsModel(t, r, db2, m, "after recovery")
	})
	clk2.Wait()
}

// TestIteratorKeepsPinnedMemtableAcrossFlush: an iterator opened before
// a flush reads the memtable it pinned — every key's newest version as
// of its opening — while the flush drops hidden versions and later
// writes overwrite the keys again.
func TestIteratorKeepsPinnedMemtableAcrossFlush(t *testing.T) {
	opt := vlogOpts()
	opt.MemtableSize = 1 << 20
	clk, db := newTestDB(0, opt)
	clk.Go("pin", func(r *vclock.Runner) {
		defer db.Close()
		m, _, err := overwrite(r, db, 3, 2000, 50)
		if err != nil {
			t.Error(err)
			return
		}
		live := m.live()
		it := db.NewIterator(r)
		defer it.Close()
		it.SeekToFirst()
		half := len(live) / 2
		for i := 0; i < half && it.Valid(); i++ {
			it.Next()
		}
		if err := db.Flush(r); err != nil {
			t.Error(err)
			return
		}
		if _, _, err := overwrite(r, db, 4, 2000, 50); err != nil {
			t.Error(err)
			return
		}
		i := half
		for ; it.Valid(); it.Next() {
			if i >= len(live) || string(it.Key()) != live[i] || !bytes.Equal(it.Value(), m.value[live[i]]) {
				t.Errorf("iterator record %d is %s, not what it pinned", i, it.Key())
				return
			}
			i++
		}
		if it.Err() != nil || i != len(live) {
			t.Errorf("iterator ended at %d of %d keys (err %v)", i, len(live), it.Err())
		}
	})
	clk.Wait()
}
