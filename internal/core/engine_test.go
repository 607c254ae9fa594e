package core

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"time"

	"kvaccel/internal/faults"
	"kvaccel/internal/fs"
	"kvaccel/internal/lsm"
	"kvaccel/internal/ssd"
	"kvaccel/internal/vclock"
)

// Compile-time interface conformance: the concrete engine and device
// types must keep satisfying the narrow interfaces core depends on.
var (
	_ MainEngine = (*lsm.DB)(nil)
	_ KVDevice   = (*ssd.KVRegion)(nil)
)

// TestCoreDependsOnInterfacesOnly asserts the refactor's core property:
// internal/core never constructs concrete engines — it receives
// MainEngine and KVDevice from the caller. Production sources must not
// reference lsm.Open/lsm.Reopen or ssd.New.
func TestCoreDependsOnInterfacesOnly(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	banned := []string{"lsm.Open(", "lsm.Reopen(", "ssd.New(", "devlsm.New("}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range banned {
			if strings.Contains(string(src), b) {
				t.Errorf("%s references concrete constructor %q; core must depend on interfaces only", name, b)
			}
		}
	}
}

// newFaultStack is newStack with the *ssd.Device exposed, so tests can
// bind a fault plan or sever the device mid-run.
func newFaultStack(opt Options, plan *faults.Plan) (*vclock.Clock, *DB, *ssd.Device) {
	clk := vclock.New()
	cfg := testSSDConfig(4, 256<<20, 64<<20)
	cfg.Faults = plan
	dev := ssd.New(clk, cfg)
	fsys := fs.New(dev.BlockNamespace(0, 0))
	main := lsm.Open(clk, fsys, testLSMOptions())
	return clk, Open(clk, main, dev.KVRegionFull(), opt), dev
}

// TestKVDeviceErrorConformance pins down the controller's contract for
// every way a KV command can fail: transient injected errors are
// retried under the policy; exhausted retries on the write path fall
// through to the Main-LSM; exhausted retries on the read path fall back
// to the Main-LSM's (older but durable) version; a severed device is
// terminal and never retried; and a failing bulk scan aborts a rollback
// before the Reset, leaving the device's pairs intact.
func TestKVDeviceErrorConformance(t *testing.T) {
	kk := []byte("conformance-key")
	v1 := []byte("value-one")
	v2 := []byte("value-two")

	cases := []struct {
		name  string
		rules []faults.Rule
		run   func(t *testing.T, r *vclock.Runner, db *DB, dev *ssd.Device)
		check func(t *testing.T, s Stats)
	}{
		{
			// One media error on KV_PUT: the retry policy absorbs it and
			// the write still lands on the device.
			name:  "put media error is retried",
			rules: []faults.Rule{{Op: "KV_PUT", Class: faults.MediaError, Every: 1, Count: 1}},
			run: func(t *testing.T, r *vclock.Runner, db *DB, dev *ssd.Device) {
				db.Detector().SetOverride(true)
				red, err := db.PutEx(r, kk, v1)
				if err != nil || !red {
					t.Fatalf("PutEx: redirected=%v err=%v, want redirect with nil error", red, err)
				}
				if dev.KVRegionFull().KVEmpty() {
					t.Error("device buffered nothing despite the redirect ack")
				}
			},
			check: func(t *testing.T, s Stats) {
				if s.DevErrors != 1 || s.DevRetries != 1 || s.DevFailed != 0 {
					t.Errorf("errors/retries/failed = %d/%d/%d, want 1/1/0", s.DevErrors, s.DevRetries, s.DevFailed)
				}
				if s.RedirectedPuts != 1 {
					t.Errorf("redirected puts = %d, want 1", s.RedirectedPuts)
				}
			},
		},
		{
			// KV_PUT fails on every attempt: the controller burns the whole
			// retry budget, then acknowledges through the Main-LSM. The
			// caller sees a successful, non-redirected write.
			name:  "put retry exhaustion falls through to main",
			rules: []faults.Rule{{Op: "KV_PUT", Class: faults.MediaError, Every: 1}},
			run: func(t *testing.T, r *vclock.Runner, db *DB, dev *ssd.Device) {
				db.Detector().SetOverride(true)
				red, err := db.PutEx(r, kk, v1)
				if err != nil || red {
					t.Fatalf("PutEx: redirected=%v err=%v, want normal-path ack", red, err)
				}
				v, ok, err := db.Get(r, kk)
				if err != nil || !ok || !bytes.Equal(v, v1) {
					t.Errorf("Get after fallback: ok=%v err=%v", ok, err)
				}
			},
			check: func(t *testing.T, s Stats) {
				att := faults.DefaultRetryPolicy().Attempts()
				if s.DevErrors != int64(att) || s.DevRetries != int64(att-1) || s.DevFailed != 1 {
					t.Errorf("errors/retries/failed = %d/%d/%d, want %d/%d/1",
						s.DevErrors, s.DevRetries, s.DevFailed, att, att-1)
				}
				if s.NormalPuts != 1 || s.RedirectedPuts != 0 {
					t.Errorf("normal/redirected = %d/%d, want 1/0", s.NormalPuts, s.RedirectedPuts)
				}
			},
		},
		{
			// A timed-out KV_GET is retried and the device's newest version
			// is still served.
			name:  "get timeout is retried",
			rules: []faults.Rule{{Op: "KV_GET", Class: faults.Timeout, Every: 1, Count: 1, Delay: 200 * time.Microsecond}},
			run: func(t *testing.T, r *vclock.Runner, db *DB, dev *ssd.Device) {
				db.Detector().SetOverride(true)
				if _, err := db.PutEx(r, kk, v2); err != nil {
					t.Fatalf("PutEx: %v", err)
				}
				v, ok, err := db.Get(r, kk)
				if err != nil || !ok || !bytes.Equal(v, v2) {
					t.Errorf("Get: ok=%v err=%v val=%q, want device version", ok, err, v)
				}
			},
			check: func(t *testing.T, s Stats) {
				if s.DevRetries != 1 || s.DevFailed != 0 {
					t.Errorf("retries/failed = %d/%d, want 1/0", s.DevRetries, s.DevFailed)
				}
			},
		},
		{
			// KV_GET fails on every attempt: the read falls back to the
			// Main-LSM's older durable version rather than erroring out.
			name:  "get retry exhaustion falls back to main",
			rules: []faults.Rule{{Op: "KV_GET", Class: faults.MediaError, Every: 1}},
			run: func(t *testing.T, r *vclock.Runner, db *DB, dev *ssd.Device) {
				if err := db.Put(r, kk, v1); err != nil { // durable in Main-LSM
					t.Fatalf("normal Put: %v", err)
				}
				db.Detector().SetOverride(true)
				if red, err := db.PutEx(r, kk, v2); err != nil || !red {
					t.Fatalf("redirected PutEx: red=%v err=%v", red, err)
				}
				v, ok, err := db.Get(r, kk)
				if err != nil || !ok {
					t.Fatalf("Get: ok=%v err=%v, want main fallback", ok, err)
				}
				if !bytes.Equal(v, v1) {
					t.Errorf("Get = %q, want the Main-LSM version %q", v, v1)
				}
			},
			check: func(t *testing.T, s Stats) {
				if s.DevFailed == 0 {
					t.Error("device read never exhausted its retries")
				}
			},
		},
		{
			// ErrDeviceGone is terminal: no retry, immediate fallback.
			name: "severed device is not retried",
			run: func(t *testing.T, r *vclock.Runner, db *DB, dev *ssd.Device) {
				dev.Sever()
				db.Detector().SetOverride(true)
				red, err := db.PutEx(r, kk, v1)
				if err != nil || red {
					t.Fatalf("PutEx on severed device: red=%v err=%v, want normal-path ack", red, err)
				}
			},
			check: func(t *testing.T, s Stats) {
				if s.DevRetries != 0 {
					t.Errorf("retries = %d; ErrDeviceGone must not be retried", s.DevRetries)
				}
				if s.DevErrors != 1 || s.DevFailed != 1 {
					t.Errorf("errors/failed = %d/%d, want 1/1", s.DevErrors, s.DevFailed)
				}
			},
		},
		{
			// A failing bulk scan aborts RollbackNow before the Reset: the
			// buffered pairs and their metadata survive for the next try.
			name:  "scan error aborts rollback without reset",
			rules: []faults.Rule{{Op: "KV_SCAN", Class: faults.MediaError, Every: 1}},
			run: func(t *testing.T, r *vclock.Runner, db *DB, dev *ssd.Device) {
				db.Detector().SetOverride(true)
				if red, err := db.PutEx(r, kk, v2); err != nil || !red {
					t.Fatalf("redirected PutEx: red=%v err=%v", red, err)
				}
				db.Detector().SetOverride(false)
				if err := db.RollbackNow(r); err == nil {
					t.Fatal("RollbackNow succeeded despite the failing scan")
				}
				if dev.KVRegionFull().KVEmpty() {
					t.Error("aborted rollback wiped the device's pairs")
				}
				v, ok, err := db.Get(r, kk)
				if err != nil || !ok || !bytes.Equal(v, v2) {
					t.Errorf("Get after aborted rollback: ok=%v err=%v val=%q", ok, err, v)
				}
			},
			check: func(t *testing.T, s Stats) {
				if s.Rollbacks != 0 {
					t.Errorf("rollbacks = %d, want 0 (scan aborted)", s.Rollbacks)
				}
			},
		},
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			plan := faults.NewPlan(1)
			for _, rule := range tc.rules {
				plan.AddRule(rule)
			}
			opt := DefaultOptions()
			opt.Rollback = RollbackDisabled
			clk, db, dev := newFaultStack(opt, plan)
			clk.Go("test", func(r *vclock.Runner) {
				defer db.Close()
				tc.run(t, r, db, dev)
			})
			clk.Wait()
			tc.check(t, db.Stats())
		})
	}
}
