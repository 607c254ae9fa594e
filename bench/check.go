package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"kvaccel/internal/vclock"
	"kvaccel/internal/workload"
)

// checkedEngine wraps the engine under test so that failures and wrong
// outputs are counted from outside: workload.FillRandom returns silently
// on its first Put error, and no workload verifies what Get returns.
type checkedEngine struct {
	eng       workload.Engine
	valueSize int

	puts, putFails atomic.Int64
	gets, getFails atomic.Int64
	wrong          atomic.Int64 // Get returned no value or the wrong one

	mu      sync.Mutex
	lat     []time.Duration // virtual latency of every successful op
	written []bool          // indexed by key number
}

func newCheckedEngine(eng workload.Engine, valueSize, keys int, preloaded bool) *checkedEngine {
	c := &checkedEngine{eng: eng, valueSize: valueSize, written: make([]bool, keys)}
	if preloaded {
		for i := range c.written {
			c.written[i] = true
		}
	}
	return c
}

// keyNumber inverts workload.Key (zero-padded decimal).
func keyNumber(key []byte) (int, bool) {
	n, err := strconv.Atoi(string(key))
	return n, err == nil
}

// valueOK reports whether v is workload.MakeValue(n, size) without
// building the 4 KiB reference: the value is a repeated 16-byte pattern.
func valueOK(v []byte, n, size int) bool {
	if len(v) != size {
		return false
	}
	pattern := fmt.Sprintf("%016x", uint64(n)*0x9e3779b97f4a7c15)
	for len(v) >= 16 {
		if string(v[:16]) != pattern {
			return false
		}
		v = v[16:]
	}
	return string(v) == pattern[:len(v)]
}

func (c *checkedEngine) Put(r *vclock.Runner, key, value []byte) error {
	c.puts.Add(1)
	t0 := r.Now()
	err := c.eng.Put(r, key, value)
	d := r.Now().Sub(t0)
	if err != nil {
		c.putFails.Add(1)
		return err
	}
	n, ok := keyNumber(key)
	c.mu.Lock()
	c.lat = append(c.lat, d)
	if ok && n < len(c.written) {
		c.written[n] = true
	}
	c.mu.Unlock()
	return nil
}

func (c *checkedEngine) Get(r *vclock.Runner, key []byte) ([]byte, bool, error) {
	c.gets.Add(1)
	t0 := r.Now()
	v, found, err := c.eng.Get(r, key)
	d := r.Now().Sub(t0)
	if err != nil {
		c.getFails.Add(1)
		return v, found, err
	}
	n, ok := keyNumber(key)
	c.mu.Lock()
	c.lat = append(c.lat, d)
	written := ok && n < len(c.written) && c.written[n]
	c.mu.Unlock()
	if written && (!found || !valueOK(v, n, c.valueSize)) {
		c.wrong.Add(1)
	}
	return v, found, nil
}

func (c *checkedEngine) Delete(r *vclock.Runner, key []byte) error { return c.eng.Delete(r, key) }
func (c *checkedEngine) Flush(r *vclock.Runner)                    { c.eng.Flush(r) }
func (c *checkedEngine) NewIterator(r *vclock.Runner) workload.Iterator {
	return c.eng.NewIterator(r)
}

// completed is the count of successful ops so far (the throughput
// sampler's input).
func (c *checkedEngine) completed() int64 {
	return c.puts.Load() - c.putFails.Load() + c.gets.Load() - c.getFails.Load()
}

// verifySample re-reads up to n written keys chosen from seed through the
// wrapped engine and returns how many it read and how many came back
// missing or wrong. It runs after the measured window.
func (c *checkedEngine) verifySample(r *vclock.Runner, seed int64, n int) (read, bad int) {
	c.mu.Lock()
	var keys []int
	for k, w := range c.written {
		if w {
			keys = append(keys, k)
		}
	}
	c.mu.Unlock()
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	if len(keys) > n {
		keys = keys[:n]
	}
	for _, k := range keys {
		v, found, err := c.eng.Get(r, workload.Key(k))
		if err != nil || !found || !valueOK(v, k, c.valueSize) {
			bad++
		}
	}
	return len(keys), bad
}
