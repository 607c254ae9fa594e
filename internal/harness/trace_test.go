package harness

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"kvaccel/internal/trace"
)

// stallingParams is a fillrandom setup that reliably write-stalls: the
// stock engine with the slowdown mechanism off runs straight into L0
// stop conditions (the paper's Figure 2 pathology).
func stallingParams() Params {
	p := DefaultParams()
	p.Duration = 5 * time.Second
	return p
}

// TestTraceStallAttribution is the tentpole acceptance test: tracing a
// stalling fillrandom must yield (a) a Chrome trace that validates, and
// (b) a stall report whose largest window is >=90% attributed to named
// activity phases, with the headline phases present as distinct rows.
func TestTraceStallAttribution(t *testing.T) {
	p := stallingParams()
	p.Trace = trace.New(1 << 19)
	spec := EngineSpec{Kind: KindRocksDB, Threads: 1, Slowdown: false}
	res := p.Run(spec, WorkloadA)

	if res.MainStats.TotalStalls() == 0 {
		t.Fatal("workload did not stall; the attribution test needs a stalling run")
	}
	if res.TraceSummary == nil || res.TraceStalls == nil {
		t.Fatal("RunResult missing trace summary / stall report")
	}

	// The distinct named phases of the acceptance criterion.
	for _, ph := range []trace.Phase{trace.PhaseStallWait, trace.PhaseCompactionIO, trace.PhaseNVMeQueue} {
		if res.TraceSummary.Get(ph).Count == 0 {
			t.Errorf("phase %v absent from the attribution table", ph)
		}
	}

	if len(res.TraceStalls.Windows) == 0 {
		t.Fatal("stall report has no windows despite engine stalls")
	}
	best := res.TraceStalls.Windows[0]
	for _, w := range res.TraceStalls.Windows {
		if w.Duration() > best.Duration() {
			best = w
		}
	}
	if cov := best.Coverage(); cov < 0.9 {
		t.Errorf("largest stall window (%v) only %.0f%% attributed, want >=90%%:\n%s",
			best.Duration(), 100*cov, res.TraceStalls.String())
	}
	var hasComp bool
	for _, a := range best.Attribution {
		if a.Phase == trace.PhaseCompaction || a.Phase == trace.PhaseCompactionIO {
			hasComp = true
		}
	}
	if !hasComp {
		t.Errorf("largest stall window not attributed to compaction activity: %+v", best.Attribution)
	}

	data := p.Trace.ChromeTraceJSON()
	stats, err := trace.ValidateChromeTrace(data)
	if err != nil {
		t.Fatalf("exported trace invalid: %v", err)
	}
	if stats.SpanPairs == 0 || stats.Metadata == 0 || stats.Lanes < 3 {
		t.Fatalf("trace suspiciously thin: %+v", stats)
	}
	t.Logf("trace: %d events, %d pairs, %d lanes; largest window %v at %.0f%% coverage",
		stats.Events, stats.SpanPairs, stats.Lanes, best.Duration(), 100*best.Coverage())
}

// TestTraceOverheadInvisible checks that enabling tracing does not
// change what the simulation measures: virtual time is never spent by
// the tracer, so throughput must match an untraced run closely (runs
// are not bit-identical across goroutine schedules, hence the small
// tolerance).
func TestTraceOverheadInvisible(t *testing.T) {
	base := stallingParams()
	base.Duration = 3 * time.Second
	spec := EngineSpec{Kind: KindRocksDB, Threads: 1, Slowdown: false}

	plain := base.Run(spec, WorkloadA)

	traced := base
	traced.Trace = trace.New(1 << 18)
	withTrace := traced.Run(spec, WorkloadA)

	pw, tw := float64(plain.Rec.Writes()), float64(withTrace.Rec.Writes())
	if pw == 0 || tw == 0 {
		t.Fatalf("degenerate run: plain=%v traced=%v", pw, tw)
	}
	if ratio := tw / pw; ratio < 0.97 || ratio > 1.03 {
		t.Errorf("tracing changed virtual throughput: %v vs %v writes (ratio %.4f)", tw, pw, ratio)
	}
	if plain.MainStats.Flushes != withTrace.MainStats.Flushes {
		t.Logf("note: flush counts differ (%d vs %d) — scheduling variance, not trace time",
			plain.MainStats.Flushes, withTrace.MainStats.Flushes)
	}
}

// TestTortureTraceDump drives the negative control (unchecked WAL
// replay) with tracing armed and asserts the suite dumps a schema-valid
// Chrome trace of the violating window.
func TestTortureTraceDump(t *testing.T) {
	dir := t.TempDir()
	for _, seed := range []int64{1, 2, 3, 4, 5, 6, 7, 8} {
		path := filepath.Join(dir, "torture-trace.json")
		p := DefaultTortureParams(seed)
		p.BrokenRecovery = true
		p.FaultRules = false
		p.TracePath = path
		rep := RunTorture(p)
		if len(rep.Violations) == 0 {
			continue // this seed's torn tail happened to be harmless
		}
		if !rep.TraceDumped {
			t.Fatalf("seed %d violated the oracle but dumped no trace", seed)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("seed %d: reading dump: %v", seed, err)
		}
		stats, verr := trace.ValidateChromeTrace(data)
		if verr != nil {
			t.Fatalf("seed %d: dumped trace invalid: %v", seed, verr)
		}
		if stats.Events == 0 || stats.SpanPairs == 0 {
			t.Fatalf("seed %d: dumped trace is empty: %+v", seed, stats)
		}
		t.Logf("seed %d: violation traced — %d events, %d span pairs, %d lanes",
			seed, stats.Events, stats.SpanPairs, stats.Lanes)
		return
	}
	t.Fatal("no seed produced an oracle violation; negative control is broken")
}

// TestTortureTracePassesWithoutViolation checks the quiet path: a clean
// torture run with tracing armed writes nothing.
func TestTortureTracePassesWithoutViolation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "clean.json")
	p := DefaultTortureParams(1)
	p.Cuts = 2
	p.TracePath = path
	rep := RunTorture(p)
	if len(rep.Violations) > 0 {
		t.Fatalf("clean run violated: %v", rep.Violations)
	}
	if rep.TraceDumped {
		t.Fatal("clean run dumped a violation trace")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("trace file exists after clean run (err=%v)", err)
	}
}
