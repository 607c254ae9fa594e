package memtable

// Property tests for the lock-free skiplist under real concurrency.
// These are meant to run under -race: plain goroutines hammer one
// table while oracles check the visibility guarantees the LSM relies
// on — a completed Add is immediately visible, per-key reads never go
// backwards in seq, and an iterator bounded at seq S is a stable
// snapshot no matter how many inserts land beside it.

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// propVal encodes the (key, seq) identity into the stored value so a
// reader can verify a Get never stitches one version's bytes onto
// another version's entry.
func propVal(key []byte, seq uint64) []byte {
	return []byte(fmt.Sprintf("%s|%d", key, seq))
}

func TestMemtableConcurrentInsertGet(t *testing.T) {
	cases := []struct {
		name    string
		writers int
		readers int
		keys    int
		ops     int
	}{
		{"2w2r-narrow", 2, 2, 8, 400},
		{"4w4r-mid", 4, 4, 64, 400},
		{"8w4r-wide", 8, 4, 1024, 250},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			m := New(0)
			var seqGen atomic.Uint64
			var writers, readers sync.WaitGroup
			stop := make(chan struct{})

			// Readers: per-key last-seen seq must never decrease, and
			// every value must carry its own (key, seq) identity.
			for g := 0; g < tc.readers; g++ {
				readers.Add(1)
				go func(g int) {
					defer readers.Done()
					rng := rand.New(rand.NewSource(int64(1000 + g)))
					last := make(map[string]uint64)
					for {
						select {
						case <-stop:
							return
						default:
						}
						key := []byte(fmt.Sprintf("pk%05d", rng.Intn(tc.keys)))
						v, kind, ok := m.Get(key)
						if !ok {
							continue
						}
						if kind != KindPut {
							t.Errorf("key %s: unexpected kind %v", key, kind)
							return
						}
						var gotKey string
						var gotSeq uint64
						i := bytes.IndexByte(v, '|')
						if i < 0 {
							t.Errorf("key %s: malformed value %q", key, v)
							return
						}
						gotKey = string(v[:i])
						fmt.Sscanf(string(v[i+1:]), "%d", &gotSeq)
						if gotKey != string(key) {
							t.Errorf("key %s: value carries key %s", key, gotKey)
							return
						}
						if prev := last[string(key)]; gotSeq < prev {
							t.Errorf("key %s: seq went backwards %d -> %d", key, prev, gotSeq)
							return
						}
						last[string(key)] = gotSeq
					}
				}(g)
			}

			// Writers: unique seqs from one counter, shared keyspace so
			// CAS insert races on both towers and version chains. After
			// Add returns, the write must be visible at seq >= its own.
			for g := 0; g < tc.writers; g++ {
				writers.Add(1)
				go func(g int) {
					defer writers.Done()
					rng := rand.New(rand.NewSource(int64(g + 1)))
					for i := 0; i < tc.ops; i++ {
						key := []byte(fmt.Sprintf("pk%05d", rng.Intn(tc.keys)))
						seq := seqGen.Add(1)
						m.Add(seq, KindPut, key, propVal(key, seq))
						v, _, ok := m.Get(key)
						if !ok {
							t.Errorf("key %s invisible right after Add(seq=%d)", key, seq)
							return
						}
						i := bytes.IndexByte(v, '|')
						var got uint64
						fmt.Sscanf(string(v[i+1:]), "%d", &got)
						if got < seq {
							t.Errorf("key %s: read seq %d after Add(seq=%d) returned", key, got, seq)
							return
						}
					}
				}(g)
			}

			// Let writers finish, then release the readers.
			writers.Wait()
			close(stop)
			readers.Wait()

			if total := tc.writers * tc.ops; int(m.Count()) != total && !t.Failed() {
				t.Fatalf("count = %d, want %d (every unique (key,seq) linked exactly once)", m.Count(), total)
			}
		})
	}
}

func TestMemtableConcurrentIterateOrdered(t *testing.T) {
	// While writers insert, every full iteration must be strictly
	// ordered: key ascending, seq descending within a key, and no
	// (key, seq) pair visited twice.
	m := New(0)
	var seqGen atomic.Uint64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g + 77)))
			for i := 0; i < 500; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := []byte(fmt.Sprintf("it%04d", rng.Intn(200)))
				seq := seqGen.Add(1)
				m.Add(seq, KindPut, key, propVal(key, seq))
			}
		}(g)
	}
	for pass := 0; pass < 50; pass++ {
		it := m.NewIterator()
		var prevKey []byte
		var prevSeq uint64
		for it.SeekToFirst(); it.Valid(); it.Next() {
			e := it.Entry()
			if prevKey != nil {
				switch bytes.Compare(prevKey, e.Key) {
				case 1:
					t.Fatalf("pass %d: keys out of order: %q then %q", pass, prevKey, e.Key)
				case 0:
					if e.Seq >= prevSeq {
						t.Fatalf("pass %d: key %q seqs not descending: %d then %d", pass, e.Key, prevSeq, e.Seq)
					}
				}
			}
			prevKey = append(prevKey[:0], e.Key...)
			prevSeq = e.Seq
		}
	}
	close(stop)
	wg.Wait()
}

func TestMemtableIteratorSnapshotStability(t *testing.T) {
	// Entries at seq <= S form a stable snapshot: an iterator that
	// filters on the bound sees exactly the pre-populated set on every
	// pass, no matter how many concurrent inserts land above the bound.
	const preKeys = 300
	m := New(0)
	want := make(map[string]uint64, preKeys)
	for i := 0; i < preKeys; i++ {
		key := []byte(fmt.Sprintf("sn%04d", i))
		seq := uint64(i + 1)
		m.Add(seq, KindPut, key, propVal(key, seq))
		want[string(key)] = seq
	}
	bound := uint64(preKeys) // snapshot S

	var seqGen atomic.Uint64
	seqGen.Store(bound)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g + 31)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Overwrite snapshot keys and insert brand-new ones;
				// both must stay invisible below the bound.
				var key []byte
				if rng.Intn(2) == 0 {
					key = []byte(fmt.Sprintf("sn%04d", rng.Intn(preKeys)))
				} else {
					key = []byte(fmt.Sprintf("zz%04d", rng.Intn(preKeys)))
				}
				seq := seqGen.Add(1)
				m.Add(seq, KindPut, key, propVal(key, seq))
			}
		}(g)
	}
	for pass := 0; pass < 60; pass++ {
		got := make(map[string]uint64, preKeys)
		it := m.NewIterator()
		for it.SeekToFirst(); it.Valid(); it.Next() {
			e := it.Entry()
			if e.Seq > bound {
				continue
			}
			if prev, dup := got[string(e.Key)]; dup {
				t.Fatalf("pass %d: key %q has two entries <= bound (seq %d and %d)", pass, e.Key, prev, e.Seq)
			}
			got[string(e.Key)] = e.Seq
		}
		if len(got) != len(want) {
			t.Fatalf("pass %d: snapshot drifted: %d keys, want %d", pass, len(got), len(want))
		}
		for k, s := range want {
			if got[k] != s {
				t.Fatalf("pass %d: key %s: snapshot seq %d, want %d", pass, k, got[k], s)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestMemtableSeekVersionUnderInserts(t *testing.T) {
	// SeekVersion(key, S) must land on the newest entry with seq <= S
	// for that key even while newer versions are being linked in front
	// of it by other goroutines.
	m := New(0)
	const k = "hotkey"
	for s := uint64(1); s <= 50; s++ {
		m.Add(s, KindPut, []byte(k), propVal([]byte(k), s))
	}
	var seqGen atomic.Uint64
	seqGen.Store(50)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := seqGen.Add(1)
				m.Add(s, KindPut, []byte(k), propVal([]byte(k), s))
			}
		}()
	}
	for pass := 0; pass < 200; pass++ {
		bound := uint64(pass%50 + 1)
		it := m.NewIterator()
		it.SeekVersion([]byte(k), bound)
		if !it.Valid() {
			t.Fatalf("SeekVersion(%s, %d) found nothing", k, bound)
		}
		e := it.Entry()
		if string(e.Key) != k || e.Seq != bound {
			t.Fatalf("SeekVersion(%s, %d) landed on (%q, %d), want exact version", k, bound, e.Key, e.Seq)
		}
		if !bytes.Equal(e.Value, propVal([]byte(k), bound)) {
			t.Fatalf("version %d carries wrong value %q", bound, e.Value)
		}
	}
	close(stop)
	wg.Wait()
}
