// Package workload reimplements the db_bench workloads of Table IV:
// fillrandom (A), readwhilewriting at 9:1 and 8:2 write/read mixes (B,
// C), and seekrandom with Seek + 1024 Next after a bulk load (D). Key and
// value shapes follow the paper: fixed-width keys over a bounded
// keyspace, constant-size synthetic values.
package workload

import (
	"math/rand"
	"time"

	"kvaccel/internal/encoding"
	"kvaccel/internal/metrics"
	"kvaccel/internal/vclock"
)

// Iterator is the engine-neutral range cursor.
type Iterator interface {
	Seek(key []byte)
	Next()
	Valid() bool
	Key() []byte
	Value() []byte
	Close()
}

// Engine is the KV interface the workloads drive; lsm.DB (RocksDB/ADOC
// baselines) and kvaccel.DB (KVACCEL) both adapt to it.
type Engine interface {
	Put(r *vclock.Runner, key, value []byte) error
	Delete(r *vclock.Runner, key []byte) error
	// Get's value is read-only and may alias engine memory. Copy it to
	// modify it, or to keep it past its use, since it pins the buffer it
	// points into.
	Get(r *vclock.Runner, key []byte) (value []byte, ok bool, err error)
	NewIterator(r *vclock.Runner) Iterator
	Flush(r *vclock.Runner)
}

// Config shapes a workload run.
type Config struct {
	// KeySpace bounds the random key domain (db_bench --num).
	KeySpace int
	// ValueSize is the constant value length (4 KiB in Table IV).
	ValueSize int
	// Duration is the virtual run length.
	Duration time.Duration
	// Seed feeds the generators.
	Seed int64
	// ReadFraction is reads/(reads+writes) for readwhilewriting: 0.1 for
	// workload B (9:1), 0.2 for workload C (8:2).
	ReadFraction float64
	// Queries and NextsPerSeek shape seekrandom (workload D).
	Queries      int
	NextsPerSeek int
}

// DefaultConfig is the scaled Table IV setup: 4 KiB values over a 100 K
// keyspace for 60 virtual seconds (1/10 of the paper's 600 s).
func DefaultConfig() Config {
	return Config{
		KeySpace:     100_000,
		ValueSize:    4096,
		Duration:     60 * time.Second,
		Seed:         1,
		NextsPerSeek: 1024,
		Queries:      60,
	}
}

// Key renders key number n in db_bench's fixed-width format.
func Key(n int) []byte { return encoding.Key16(uint64(n)) }

// MakeValue builds a deterministic value of the configured size for key
// n; contents are verifiable without storing a reference copy.
func MakeValue(n, size int) []byte {
	v := make([]byte, size)
	fillValue(v, n)
	return v
}

// fillValue writes key n's value into v: the 16 hex digits of a
// multiplicative hash of n ("%016x"), repeated to len(v).
func fillValue(v []byte, n int) {
	const digits = "0123456789abcdef"
	var pattern [16]byte
	x := uint64(n) * 0x9e3779b97f4a7c15
	for i := len(pattern) - 1; i >= 0; i-- {
		pattern[i] = digits[x&15]
		x >>= 4
	}
	// Double the filled prefix until it covers v.
	for filled := copy(v, pattern[:]); filled < len(v); filled *= 2 {
		copy(v[filled:], v[:filled])
	}
}

// scratch is one load-generating runner's key and value buffers, reused
// for every request as db_bench's RandomGenerator reuses its own. That is
// sound because no engine keeps a caller's buffer past the call
// (harness.TestWritesDoNotRetainCallerBuffers) and request frames copy
// what they carry; a key or value that must outlive the next request
// comes from Key or MakeValue instead.
type scratch struct {
	k [16]byte
	v []byte
}

// key formats key number n, as Key does, into the scratch buffer.
func (s *scratch) key(n int) []byte { return encoding.FormatKey(s.k[:0], uint64(n), len(s.k)) }

// value builds key n's value, as MakeValue does, in the scratch buffer.
func (s *scratch) value(n, size int) []byte {
	if cap(s.v) < size {
		s.v = make([]byte, size)
	}
	s.v = s.v[:size]
	fillValue(s.v, n)
	return s.v
}

// Recorder accumulates a run's measurements: op counts, per-second
// throughput series, and latency histograms.
type Recorder struct {
	writes int64
	reads  int64
	scans  int64

	WriteLatency *metrics.Histogram
	ReadLatency  *metrics.Histogram
	ScanLatency  *metrics.Histogram
	WriteSeries  *metrics.Series // Kops/s per second
	ReadSeries   *metrics.Series

	lastWrites int64
	lastReads  int64
}

// NewRecorder returns an empty recorder with named series.
func NewRecorder(name string) *Recorder {
	return &Recorder{
		WriteLatency: metrics.NewHistogram(),
		ReadLatency:  metrics.NewHistogram(),
		ScanLatency:  metrics.NewHistogram(),
		WriteSeries:  metrics.NewSeries(name + ".write-kops"),
		ReadSeries:   metrics.NewSeries(name + ".read-kops"),
	}
}

// Writes returns the cumulative write count.
func (rec *Recorder) Writes() int64 { return rec.writes }

// Reads returns the cumulative read count.
func (rec *Recorder) Reads() int64 { return rec.reads }

// Scans returns the cumulative range-scan count (mixed workloads only).
func (rec *Recorder) Scans() int64 { return rec.scans }

// Sample appends one throughput point at time t (in the series' time
// unit), normalizing the ops delta over the sampling interval to Kops/s.
func (rec *Recorder) Sample(t float64, interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	w, rd := rec.writes, rec.reads
	rec.WriteSeries.Append(t, float64(w-rec.lastWrites)/1000/interval.Seconds())
	rec.ReadSeries.Append(t, float64(rd-rec.lastReads)/1000/interval.Seconds())
	rec.lastWrites, rec.lastReads = w, rd
}

// FillRandom runs workload A on the calling runner: one write thread
// issuing random-key puts at full speed until the deadline.
func FillRandom(r *vclock.Runner, eng Engine, cfg Config, rec *Recorder) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var buf scratch
	start := r.Now()
	for r.Now().Sub(start) < cfg.Duration {
		n := rng.Intn(cfg.KeySpace)
		t0 := r.Now()
		if err := eng.Put(r, buf.key(n), buf.value(n, cfg.ValueSize)); err != nil {
			return
		}
		rec.WriteLatency.Observe(r.Now().Sub(t0))
		rec.writes++
	}
}

// FillSequential loads n keys in order (the workload-D preload).
func FillSequential(r *vclock.Runner, eng Engine, cfg Config, n int) {
	var buf scratch
	for i := 0; i < n; i++ {
		if err := eng.Put(r, buf.key(i), buf.value(i, cfg.ValueSize)); err != nil {
			return
		}
	}
	eng.Flush(r)
}

// ReadWhileWriting runs workloads B/C: the calling runner writes at full
// speed while a companion reader runner issues point gets, paced so reads
// are cfg.ReadFraction of total operations. It returns when the write
// deadline passes; the reader stops with it.
func ReadWhileWriting(r *vclock.Runner, clk *vclock.Clock, eng Engine, cfg Config, rec *Recorder) {
	var done bool
	readsPerWrite := cfg.ReadFraction / (1 - cfg.ReadFraction)
	clk.Go("workload.reader", func(rr *vclock.Runner) {
		rng := rand.New(rand.NewSource(cfg.Seed + 7))
		var buf scratch
		for !done {
			// Pace reads against completed writes to hold the ratio.
			target := int64(float64(rec.writes) * readsPerWrite)
			if rec.reads >= target {
				rr.Sleep(time.Millisecond)
				continue
			}
			n := rng.Intn(cfg.KeySpace)
			t0 := rr.Now()
			_, _, err := eng.Get(rr, buf.key(n))
			if err != nil {
				return
			}
			rec.ReadLatency.Observe(rr.Now().Sub(t0))
			rec.reads++
		}
	})
	FillRandom(r, eng, cfg, rec)
	done = true
}

// SeekRandom runs workload D on the calling runner: random range queries
// of Seek + NextsPerSeek Nexts each. Every Seek and Next counts as one
// operation, matching db_bench's seekrandom accounting. It performs
// cfg.Queries queries (or runs until Duration, whichever first).
func SeekRandom(r *vclock.Runner, eng Engine, cfg Config, rec *Recorder) {
	rng := rand.New(rand.NewSource(cfg.Seed + 13))
	start := r.Now()
	for q := 0; q < cfg.Queries; q++ {
		if cfg.Duration > 0 && r.Now().Sub(start) >= cfg.Duration {
			return
		}
		n := rng.Intn(cfg.KeySpace)
		it := eng.NewIterator(r)
		t0 := r.Now()
		it.Seek(Key(n))
		rec.reads++
		for i := 0; i < cfg.NextsPerSeek && it.Valid(); i++ {
			it.Next()
			rec.reads++
		}
		rec.ReadLatency.Observe(r.Now().Sub(t0))
		it.Close()
	}
}
