package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// TestMetadataManagerMatchesModel drives random Insert / Contains /
// Remove / Clear against a map model over 20 seeds. Keys run from empty to
// 300 bytes, with some longer than an arena chunk, and are drawn from a
// small pool so inserts often find the key present. After every Insert the
// caller scribbles over its key buffer, as the workloads reuse theirs:
// membership must not change, so the manager must have copied the key.
func TestMetadataManagerMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pool := make([][]byte, 200)
		for i := range pool {
			n := rng.Intn(301)
			if i%20 == 0 {
				n = metaArenaChunk + rng.Intn(metaArenaChunk)
			}
			pool[i] = make([]byte, n)
			rng.Read(pool[i])
		}
		m := NewMetadataManager()
		model := map[string]bool{}
		buf := make([]byte, 0, 2*metaArenaChunk)
		check := func(step int, op string) {
			for _, k := range pool {
				if got, want := m.Contains(k), model[string(k)]; got != want {
					t.Fatalf("seed %d step %d (%s): Contains(%d-byte key) = %v, want %v", seed, step, op, len(k), got, want)
				}
			}
			if m.Count() != len(model) {
				t.Fatalf("seed %d step %d (%s): Count = %d, want %d", seed, step, op, m.Count(), len(model))
			}
		}
		for step := 0; step < 2000; step++ {
			k := pool[rng.Intn(len(pool))]
			op := "insert"
			switch p := rng.Intn(100); {
			case p < 50:
				buf = append(buf[:0], k...)
				m.Insert(buf)
				model[string(k)] = true
				for i := range buf {
					buf[i] ^= 0xff
				}
			case p < 70:
				op = "contains"
				if got := m.Contains(k); got != model[string(k)] {
					t.Fatalf("seed %d step %d: Contains = %v, want %v", seed, step, got, model[string(k)])
				}
			case p < 99:
				op = "remove"
				if got := m.Remove(k); got != model[string(k)] {
					t.Fatalf("seed %d step %d: Remove = %v, want %v", seed, step, got, model[string(k)])
				}
				delete(model, string(k))
			default:
				op = "clear"
				m.Clear()
				model = map[string]bool{}
			}
			if step%50 == 0 || op == "clear" {
				check(step, op)
			}
		}
		check(2000, "end")
	}
}

// TestAllocsMetadataInsert: a new 16-byte key costs a share of one arena
// chunk and of the map's growth; a key already present costs nothing.
func TestAllocsMetadataInsert(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const n = 100000
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key%013d", i)) // 16 bytes
	}
	m := NewMetadataManager()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, k := range keys {
		m.Insert(k)
	}
	runtime.ReadMemStats(&after)
	if per := float64(after.Mallocs-before.Mallocs) / n; per > 0.01 {
		t.Errorf("%.4f allocations per new-key Insert, want at most 0.01", per)
	}
	k := keys[n/2]
	if a := testing.AllocsPerRun(1000, func() { m.Insert(k) }); a != 0 {
		t.Errorf("%v allocations per Insert of a present key, want 0", a)
	}
	if m.Count() != n {
		t.Fatalf("Count = %d, want %d", m.Count(), n)
	}
}
