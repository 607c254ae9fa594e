package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sync/atomic"
	"time"

	"kvaccel/internal/trace"
	"kvaccel/internal/vclock"
)

// runOpts is one invocation's input. Seed is the only workload input the
// program under test is derived from.
type runOpts struct {
	Seed     int64
	Seconds  float64 // nominal wall seconds; scales every virtual window
	Trace    bool
	TraceDir string // write Chrome trace JSON here after the run ("" = don't)
}

// result is everything one run of one workload measured.
type result struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Traced     bool               `json:"traced"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Correct    bool               `json:"correct"`
	Attempted  int64              `json:"attempted"`
	Failed     int64              `json:"failed"`
	Problems   []string           `json:"problems,omitempty"`
	WindowVS   float64            `json:"window_vs"`
	EndToEnd   map[string]float64 `json:"end_to_end"`
	PerLayer   map[string]float64 `json:"per_layer"`
}

func (res *result) problem(format string, args ...any) {
	res.Correct = false
	res.Problems = append(res.Problems, fmt.Sprintf(format, args...))
}

// progress is the last thing the run reported doing; the watchdog prints
// it when a run hangs.
var progress atomic.Value

func note(format string, args ...any) { progress.Store(fmt.Sprintf(format, args...)) }

// traceRing sizes the span ring of a traced run. Per-phase aggregates are
// exact whatever the size; the ring only has to hold enough of the
// writer's lane for the blocking-path closure sample.
const traceRing = 1 << 20

// bracket is the bookkeeping around one measured interval: counter
// snapshots, host samples and (traced) a CPU profile, taken by the
// workload runner at the interval's two ends.
type bracket struct {
	stk          *stack
	traced       bool
	snapA, snapB snap
	hostA, hostB hostSample
	prof         bytes.Buffer
	profErr      error
}

func (w *bracket) begin() {
	w.snapA = w.stk.snapshot()
	if w.traced {
		w.profErr = pprof.StartCPUProfile(&w.prof)
	}
	w.hostA = sampleHost()
}

func (w *bracket) end() {
	w.hostB = sampleHost()
	if w.traced && w.profErr == nil {
		pprof.StopCPUProfile()
	}
	w.snapB = w.stk.snapshot()
}

func (w *bracket) virtual() time.Duration { return w.snapB.At.Sub(w.snapA.At) }

// sampleThroughput starts a runner that records completed() once per
// interval until stop is set, and returns the per-interval deltas.
func sampleThroughput(clk *vclock.Clock, interval time.Duration, completed func() int64, stop *atomic.Bool) *[]int64 {
	out := new([]int64)
	clk.Go("bench.sampler", func(r *vclock.Runner) {
		last := completed()
		for !stop.Load() {
			r.Sleep(interval)
			now := completed()
			*out = append(*out, now-last)
			last = now
		}
	})
	return out
}

// measured is what a driver hands back for the common reduction.
type measured struct {
	win       *bracket
	ops       int64      // completed ops in the window
	userBytes int64      // key+value payload the engine accepted in the window
	lat       latSummary // virtual latency of the primary op
	tput      []int64    // ops per throughput window
	drainVS   float64
	drainS    float64
	attempted int64
	failed    int64
	wrong     int64
}

// runWorkload runs spec once: Setups-1 throw-away set-ups, then the
// measured pass, then the reduction to named metrics.
func runWorkload(spec workloadSpec, o runOpts) (*result, error) {
	res := &result{
		Workload: spec.Name, Seed: o.Seed, Traced: o.Trace, Correct: true,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		EndToEnd:   map[string]float64{}, PerLayer: map[string]float64{},
	}
	for _, m := range perLayer {
		res.PerLayer[m.Name] = 0
	}
	window := time.Duration(float64(spec.Window) * o.Seconds / runSeconds)
	if window <= 0 {
		return nil, fmt.Errorf("--seconds %v gives an empty window", o.Seconds)
	}

	driver := runEngine
	if spec.Kind == kindServe {
		driver = runServe
	}
	var setups []float64
	for i := 1; i < spec.Setups; i++ {
		note("%s: set-up %d/%d", spec.Name, i, spec.Setups)
		s, _, err := driver(spec, o, window, false, nil, res)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
		debug.FreeOSMemory() // keep the throw-away machine out of the peak RSS
	}
	var tr *trace.Tracer
	if o.Trace {
		tr = trace.New(traceRing)
	}
	note("%s: set-up %d/%d, then measuring", spec.Name, spec.Setups, spec.Setups)
	s, m, err := driver(spec, o, window, true, tr, res)
	if err != nil {
		return nil, err
	}
	setups = append(setups, s)
	_, res.EndToEnd["setup_s"], _ = quartiles(setups)

	win := m.win
	res.WindowVS = win.virtual().Seconds()
	res.Attempted, res.Failed = m.attempted, m.failed+m.wrong
	ops := float64(m.ops)
	if m.ops == 0 {
		res.problem("no operation completed in the window")
	}

	res.EndToEnd["ops_per_vsec"] = ratio(ops, res.WindowVS)
	res.EndToEnd["lat_mean_us"] = m.lat.mean
	res.PerLayer["workload.lat_p50_us"] = m.lat.p50
	res.PerLayer["workload.lat_p99_us"] = m.lat.p99
	res.PerLayer["workload.lat_p999_us"] = m.lat.p999
	res.PerLayer["workload.lat_samples"] = float64(m.lat.n)

	if n := int(win.virtual() / spec.TputWindow); len(m.tput) > n {
		m.tput = m.tput[:n] // the sampler's last tick straddles the window's end
	}
	cv, minFrac := tputStats(m.tput)
	// 1/(1+cv): 1 is perfectly steady, 0.5 is windows straying from the
	// mean by as much as the mean. The cv itself reads near 0 on a smooth
	// workload, where its relative spread is meaningless.
	res.EndToEnd["tput_steadiness"] = 1 / (1 + cv)
	res.PerLayer["workload.tput_cv"], res.PerLayer["workload.tput_min_frac"] = cv, minFrac
	// Device bytes per user byte, measured where the bytes land: NAND
	// programs cover WAL, flush, compaction, vlog and Dev-LSM alike.
	res.EndToEnd["write_amp"] = ratio(float64(win.snapB.NAND.BytesProgrammed-win.snapA.NAND.BytesProgrammed), float64(m.userBytes))
	res.EndToEnd["host_peak_rss_mb"] = peakRSSMB()
	hostMetrics(res.EndToEnd, res.PerLayer, win.hostA, win.hostB, ops, win.virtual())

	res.PerLayer["workload.ops_attempted"] = float64(m.attempted)
	res.PerLayer["workload.ops_failed"] = float64(m.failed)
	res.PerLayer["workload.wrong_values"] = float64(m.wrong)
	res.PerLayer["workload.drain_vs"] = m.drainVS
	res.PerLayer["host.drain_s"] = m.drainS
	win.stk.layerMetrics(res.PerLayer, win.snapA, win.snapB)

	if o.Trace {
		if win.profErr != nil {
			return nil, fmt.Errorf("cpu profile: %w", win.profErr)
		}
		shares, err := leafShares(win.prof.Bytes())
		if err != nil {
			return nil, err
		}
		for g, v := range shares {
			res.PerLayer["host.share."+g] = v
		}
		res.PerLayer["trace.dropped"] = float64(tr.Dropped())
		res.PerLayer["trace.events"] = float64(tr.Len()) + float64(tr.Dropped())
		if o.TraceDir != "" {
			if err := writeChromeTrace(tr, filepath.Join(o.TraceDir, spec.Name+".trace.json")); err != nil {
				return nil, err
			}
		}
	}

	for name, v := range res.EndToEnd {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			res.problem("end-to-end metric %s = %v", name, v)
		}
	}
	for name, v := range res.PerLayer {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.problem("per-layer metric %s = %v", name, v)
		}
	}
	return res, nil
}

func writeChromeTrace(tr *trace.Tracer, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// mark records one of the benchmark's own bench.* spans: virtual start
// and length on the workload runner's lane, wall microseconds as the arg.
func mark(tr *trace.Tracer, r *vclock.Runner, name string, start vclock.Time, d time.Duration, wall time.Duration) {
	tr.Complete(r, trace.PhaseNone, name, start, d, 0, wall.Microseconds())
}
