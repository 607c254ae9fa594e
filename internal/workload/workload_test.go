package workload

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"kvaccel/internal/vclock"
)

// fakeEngine is an in-memory Engine with a configurable per-op latency.
type fakeEngine struct {
	data    map[string][]byte
	opDelay time.Duration
}

func newFakeEngine(d time.Duration) *fakeEngine {
	return &fakeEngine{data: map[string][]byte{}, opDelay: d}
}

func (e *fakeEngine) Put(r *vclock.Runner, key, value []byte) error {
	if e.opDelay > 0 {
		r.Sleep(e.opDelay)
	}
	e.data[string(key)] = append([]byte(nil), value...)
	return nil
}

func (e *fakeEngine) Delete(r *vclock.Runner, key []byte) error {
	delete(e.data, string(key))
	return nil
}

func (e *fakeEngine) Get(r *vclock.Runner, key []byte) ([]byte, bool, error) {
	if e.opDelay > 0 {
		r.Sleep(e.opDelay)
	}
	v, ok := e.data[string(key)]
	return v, ok, nil
}

type fakeIter struct {
	keys [][]byte
	pos  int
}

func (e *fakeEngine) NewIterator(r *vclock.Runner) Iterator {
	if e.opDelay > 0 {
		r.Sleep(e.opDelay)
	}
	it := &fakeIter{}
	for k := range e.data {
		it.keys = append(it.keys, []byte(k))
	}
	slices.SortFunc(it.keys, bytes.Compare)
	return it
}

func (it *fakeIter) Seek(key []byte) {
	it.pos = 0
	for it.pos < len(it.keys) && bytes.Compare(it.keys[it.pos], key) < 0 {
		it.pos++
	}
}
func (it *fakeIter) Next()         { it.pos++ }
func (it *fakeIter) Valid() bool   { return it.pos < len(it.keys) }
func (it *fakeIter) Key() []byte   { return it.keys[it.pos] }
func (it *fakeIter) Value() []byte { return nil }
func (it *fakeIter) Close()        {}

func (e *fakeEngine) Flush(r *vclock.Runner) {}

func TestKeyFormat(t *testing.T) {
	k := Key(42)
	if len(k) != 16 || string(k) != "0000000000000042" {
		t.Fatalf("Key(42) = %q", k)
	}
}

func TestMakeValueDeterministic(t *testing.T) {
	a := MakeValue(7, 128)
	b := MakeValue(7, 128)
	c := MakeValue(8, 128)
	if !bytes.Equal(a, b) {
		t.Fatal("MakeValue not deterministic")
	}
	if bytes.Equal(a, c) {
		t.Fatal("MakeValue identical for different keys")
	}
	if len(MakeValue(1, 4096)) != 4096 {
		t.Fatal("MakeValue wrong size")
	}
}

func TestFillRandomRespectsDuration(t *testing.T) {
	clk := vclock.New()
	eng := newFakeEngine(time.Millisecond) // 1 Kops/s
	rec := NewRecorder("t")
	cfg := Config{KeySpace: 1000, ValueSize: 64, Duration: 2 * time.Second, Seed: 1}
	clk.Go("writer", func(r *vclock.Runner) {
		FillRandom(r, eng, cfg, rec)
		if got := r.Now().Seconds(); got < 2.0 || got > 2.1 {
			t.Errorf("fillrandom ended at %vs, want ~2s", got)
		}
	})
	clk.Wait()
	if w := rec.Writes(); w < 1900 || w > 2100 {
		t.Fatalf("writes = %d, want ~2000 at 1ms/op over 2s", w)
	}
	if rec.WriteLatency.Count() != uint64(rec.Writes()) {
		t.Fatal("latency histogram count mismatch")
	}
}

func TestReadWhileWritingHoldsRatio(t *testing.T) {
	clk := vclock.New()
	eng := newFakeEngine(100 * time.Microsecond)
	rec := NewRecorder("t")
	cfg := Config{KeySpace: 1000, ValueSize: 64, Duration: 2 * time.Second, Seed: 1, ReadFraction: 0.2}
	clk.Go("writer", func(r *vclock.Runner) {
		ReadWhileWriting(r, clk, eng, cfg, rec)
	})
	clk.Wait()
	total := rec.Writes() + rec.Reads()
	frac := float64(rec.Reads()) / float64(total)
	if frac < 0.15 || frac > 0.25 {
		t.Fatalf("read fraction = %.3f, want ~0.20 (writes=%d reads=%d)", frac, rec.Writes(), rec.Reads())
	}
}

func TestSeekRandomCountsSeeksAndNexts(t *testing.T) {
	clk := vclock.New()
	eng := newFakeEngine(0)
	rec := NewRecorder("t")
	clk.Go("loader", func(r *vclock.Runner) {
		FillSequential(r, eng, Config{ValueSize: 8}, 100)
		SeekRandom(r, eng, Config{KeySpace: 50, Queries: 5, NextsPerSeek: 10}, rec)
	})
	clk.Wait()
	// 5 queries x (1 seek + up to 10 nexts); keyspace 50 over 100 keys
	// means every seek has at least 10 following keys except near the end.
	if rec.Reads() < 40 || rec.Reads() > 55 {
		t.Fatalf("seekrandom ops = %d, want ~55", rec.Reads())
	}
}

func TestRecorderSampling(t *testing.T) {
	rec := NewRecorder("s")
	rec.writes = 500
	rec.Sample(1, 500*time.Millisecond) // 500 ops in 0.5s = 1 Kops/s
	if rec.WriteSeries.Len() != 1 {
		t.Fatal("sample not recorded")
	}
	_, v := rec.WriteSeries.At(0)
	if v != 1.0 {
		t.Fatalf("sampled rate = %v Kops/s, want 1.0", v)
	}
	rec.writes = 500 // no new ops
	rec.Sample(2, 500*time.Millisecond)
	_, v = rec.WriteSeries.At(1)
	if v != 0 {
		t.Fatalf("idle sample = %v, want 0", v)
	}
}
