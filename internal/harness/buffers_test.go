package harness

import (
	"bytes"
	"testing"

	"kvaccel"
	"kvaccel/internal/core"
	"kvaccel/internal/encoding"
	"kvaccel/internal/lsm"
	"kvaccel/internal/vclock"
)

// bufferOps is the write surface the caller-buffer contract covers, as
// the Main-LSM alone, a KVACCEL controller and the sharded front-end
// each offer it.
type bufferOps struct {
	put        func(r *vclock.Runner, key, value []byte) error
	del        func(r *vclock.Runner, key []byte) error
	batch      func(r *vclock.Runner, b *lsm.Batch) error
	get        func(r *vclock.Runner, key []byte) ([]byte, bool, error)
	flush      func(r *vclock.Runner)
	stall      func(on bool) // pins the detectors' stall signal; nil on the baselines
	redirected func() int64
	// run executes body on a runner of the engine's clock, closes the
	// engine and waits for the clock to drain.
	run func(body func(r *vclock.Runner))
}

func openSingle(p Params, spec EngineSpec) bufferOps {
	tb := p.NewTestbed()
	eng := p.BuildEngine(tb, spec)
	ops := bufferOps{
		put: eng.Eng.Put, del: eng.Eng.Delete, get: eng.Eng.Get, flush: eng.Eng.Flush,
		batch:      eng.Main.Write,
		redirected: func() int64 { return 0 },
		run: func(body func(r *vclock.Runner)) {
			tb.Clk.Go("buffers.writer", func(r *vclock.Runner) {
				body(r)
				eng.Close()
			})
			tb.Clk.Wait()
		},
	}
	if kv := eng.KV; kv != nil {
		ops.batch = kv.WriteBatch
		ops.stall = func(on bool) { setStall(kv, on) }
		ops.redirected = func() int64 { return kv.Stats().RedirectedPuts }
	}
	return ops
}

func openSharded(opt kvaccel.ShardedOptions) bufferOps {
	db := kvaccel.OpenSharded(opt)
	return bufferOps{
		put: db.Put, del: db.Delete, get: db.Get, batch: db.WriteBatch,
		flush: func(r *vclock.Runner) { _ = db.Flush(r) },
		stall: func(on bool) {
			for i := 0; i < db.NumShards(); i++ {
				setStall(db.Shard(i), on)
			}
		},
		redirected: func() int64 { return db.Stats().KVAccel.RedirectedPuts },
		run: func(body func(r *vclock.Runner)) {
			db.Run("buffers.writer", func(r *vclock.Runner) {
				body(r)
				db.Close()
			})
			db.Wait()
		},
	}
}

func setStall(kv *core.DB, on bool) {
	if on {
		kv.Detector().SetOverride(true)
	} else {
		kv.Detector().ClearOverride()
	}
}

// TestWritesDoNotRetainCallerBuffers pins the contract the scratch-buffer
// load generators and the serving tier's batcher rely on: Put, Delete and
// WriteBatch copy what they keep, so a caller may reuse its key and value
// buffers — and Reset and refill its Batch, whose arena is such a buffer —
// as soon as the call returns. Every engine writes a few hundred records from one key buffer
// and one value buffer, both scribbled over after each call; then every
// key is read back, from the memtables and again after a flush. The
// KVACCEL arms spend the middle third of the run with the stall signal
// pinned, so those writes take the redirect path into the Dev-LSM; the
// small memtable and WAL chunk make flushes, compactions and chunk
// hand-offs happen while the buffers are being reused.
func TestWritesDoNotRetainCallerBuffers(t *testing.T) {
	const (
		records   = 360
		valueSize = 1024
	)
	small := func(threshold int, frontCache int64) Params {
		p := DefaultParams()
		p.ValueSize = valueSize
		p.ValueThreshold = threshold
		p.FrontCacheBytes = frontCache
		p.TuneLSM = func(o *lsm.Options) {
			o.MemtableSize = 48 << 10
			o.WALChunkSize = 8 << 10
			o.MaxFileSize = 64 << 10
			o.BaseLevelBytes = 128 << 10
		}
		return p
	}
	sharded := kvaccel.DefaultShardedOptions()
	sharded.Shards = 2
	sharded.Scale = 10
	sharded.ValueThreshold = 512
	sharded.FrontCacheBytes = 1 << 20

	arms := []struct {
		name string
		open func() bufferOps
	}{
		{"rocksdb", func() bufferOps {
			return openSingle(small(0, 0), EngineSpec{Kind: KindRocksDB, Threads: 1, Slowdown: true})
		}},
		{"rocksdb-vlog", func() bufferOps {
			return openSingle(small(512, 0), EngineSpec{Kind: KindRocksDB, Threads: 1, Slowdown: true})
		}},
		{"adoc", func() bufferOps {
			return openSingle(small(0, 0), EngineSpec{Kind: KindADOC, Threads: 1, Slowdown: true})
		}},
		{"kvaccel-lazy-frontcache", func() bufferOps {
			return openSingle(small(0, 1<<20), EngineSpec{Kind: KindKVAccel, Threads: 1, Rollback: core.RollbackLazy})
		}},
		{"kvaccel-eager-vlog", func() bufferOps {
			return openSingle(small(512, 0), EngineSpec{Kind: KindKVAccel, Threads: 1, Rollback: core.RollbackEager})
		}},
		{"kvaccel-sharded", func() bufferOps { return openSharded(sharded) }},
	}
	for _, arm := range arms {
		arm := arm
		t.Run(arm.name, func(t *testing.T) {
			ops := arm.open()
			// want maps a key to the value last written, nil once deleted.
			want := make(map[string][]byte)
			fill := func(value []byte, i int) []byte {
				for j := range value {
					value[j] = byte(i*31 + j)
				}
				return value
			}
			verify := func(r *vclock.Runner, when string) {
				for key, value := range want {
					got, found, err := ops.get(r, []byte(key))
					switch {
					case err != nil:
						t.Errorf("%s: Get(%s): %v", when, key, err)
					case value == nil && found:
						t.Errorf("%s: deleted key %s is back (%d bytes)", when, key, len(got))
					case value != nil && !found:
						t.Errorf("%s: key %s is missing", when, key)
					case value != nil && !bytes.Equal(got, value):
						t.Errorf("%s: key %s reads a value that is not the one written", when, key)
					}
					if t.Failed() {
						return
					}
				}
			}
			ops.run(func(r *vclock.Runner) {
				key, value := make([]byte, 0, 16), make([]byte, valueSize)
				var b lsm.Batch
				for i := 0; i < records; i++ {
					if ops.stall != nil && (i == records/3 || i == 2*records/3) {
						ops.stall(i == records/3)
					}
					var err error
					switch {
					case i%9 == 8: // delete a key written a while ago
						key = encoding.FormatKey(key[:0], uint64(i-5), 16)
						want[string(key)] = nil
						err = ops.del(r, key)
					case i%5 == 4:
						// The run's one Batch, Reset and refilled — twice
						// here, back to back: two puts and a delete, then
						// three puts of other keys and shorter values, which
						// are staged over the arena bytes the first
						// generation was committed from with nothing lined
						// up. WriteBatch keeps nothing of a Batch, so both
						// generations read back.
						for gen, nums := range [][]int{{i, i + 1000}, {i + 2000, i + 3000, i + 4000}} {
							b.Reset()
							for _, n := range nums {
								key = encoding.FormatKey(key[:0], uint64(n), 16)
								v := fill(value, n)[:valueSize-100*gen]
								want[string(key)] = append([]byte(nil), v...)
								b.Put(key, v)
							}
							if gen == 0 {
								key = encoding.FormatKey(key[:0], uint64(i-3), 16)
								want[string(key)] = nil
								b.Delete(key)
							}
							if err = ops.batch(r, &b); err != nil {
								break
							}
						}
					default:
						key = encoding.FormatKey(key[:0], uint64(i), 16)
						want[string(key)] = append([]byte(nil), fill(value, i)...)
						err = ops.put(r, key, value)
					}
					if err != nil {
						t.Errorf("op %d: %v", i, err)
						return
					}
					// The call has returned: the buffers are the caller's again.
					for j := range key {
						key[j] = 0xEE
					}
					for j := range value {
						value[j] = 0xEE
					}
				}
				verify(r, "before the flush")
				ops.flush(r)
				verify(r, "after the flush")
				verify(r, "on the second read") // the first may have filled a front cache
			})
			if ops.stall != nil && ops.redirected() == 0 {
				t.Error("no write took the redirect path")
			}
		})
	}
}
