package ssd

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"
	"time"

	"kvaccel/internal/faults"
	"kvaccel/internal/ftl"
	"kvaccel/internal/nand"
	"kvaccel/internal/nvme"
	"kvaccel/internal/pcie"
	"kvaccel/internal/vclock"
)

// callStep returns a command Step that runs body, blocking code, in one
// vclock.Runner.Call: the worker runs it as a goroutine runner would run
// it inline, park for park, which makes it the reference a stepped body
// is held to.
func callStep(body func(w *vclock.Runner) error) func(w *vclock.Runner) (bool, error) {
	var called bool
	var err error
	call := func(w *vclock.Runner, _ any) { err = body(w) }
	return func(w *vclock.Runner) (bool, error) {
		if called = !called; called {
			w.Call(call, nil)
			return false, nil
		}
		return true, err
	}
}

// run is a block command's body as blocking code: the reference blkCmd.step
// is held to.
func (c *blkCmd) run(w *vclock.Runner) error {
	dev := c.ns.dev
	switch c.op {
	case blkWrite:
		dev.Link.Transfer(w, pcie.HostToDevice, c.Bytes)
		return dev.FTL.WriteMany(w, ftl.BlockRegion, c.lpns)
	case blkRead:
		err := dev.FTL.ReadMany(w, ftl.BlockRegion, c.lpns)
		dev.Link.Transfer(w, pcie.DeviceToHost, c.Bytes)
		return err
	default: // blkTrim
		dev.receive(w, c.Bytes)
		for _, l := range c.lpns {
			dev.FTL.Trim(ftl.BlockRegion, l)
		}
		return nil
	}
}

// mixResult is what a block mix showed the host and the device.
type mixResult struct {
	calls  []string // each call's runner, op, pages, status and completion instant, in completion order
	kernel vclock.Stats
	ftl    ftl.Stats
	nand   nand.Stats
	pcie   [2]int64
}

// blockMix runs a seeded mix of WRITE, READ and DSM_TRIM calls of 1, 2 and
// 200 pages (13 commands at this MDTS) from four runners over two queue
// pairs of depth qd, under a fault plan that fails some writes with a
// media error, times some reads out, delays some trims and fails some NAND
// programs, and cuts the power at cut. The array is small, so the writes
// reach FTL GC before the cut, and its GC watermarks leave room for the
// pages the queues allocate while a collection runs. With reference set,
// every command the namespace issues runs the blocking body, run, in one
// call.
func blockMix(t *testing.T, qd int, cut time.Duration, reference bool) mixResult {
	cfg := testConfig()
	cfg.Geometry.BlocksPerDie = 16
	cfg.GCFreeBlockLow, cfg.GCFreeBlockHigh = 8, 12
	cfg.BlockRegionBytes, cfg.KVRegionBytes = 4<<20, 1<<20
	cfg.NVMe = nvme.Config{QueueDepth: qd, Slots: 2 * qd, DoorbellLatency: time.Microsecond, CompletionLatency: time.Microsecond}
	cfg.IOQueues = 2
	plan := faults.NewPlan(7)
	plan.AddRule(faults.Rule{Op: "WRITE", Class: faults.MediaError, Every: 17})
	plan.AddRule(faults.Rule{Op: "READ", Class: faults.Timeout, Every: 13, Delay: 300 * time.Microsecond})
	plan.AddRule(faults.Rule{Op: "DSM_TRIM", Class: faults.LatencySpike, Every: 3, Delay: 50 * time.Microsecond})
	plan.AddRule(faults.Rule{Op: "NAND_PROG", Class: faults.MediaError, Every: 101})
	cfg.Faults = plan
	clk := vclock.New()
	d := New(clk, cfg)
	ns := d.BlockNamespace(0, 0)
	const made = 64 // more than the mix ever has in flight
	if reference {
		for i := 0; i < made; i++ {
			c := &blkCmd{ns: ns}
			c.Step = callStep(c.run)
			ns.free.put(c)
		}
	}
	var res mixResult
	sizes := []int{1, 2, 200}
	for h := 0; h < 4; h++ {
		rng := rand.New(rand.NewPCG(uint64(h), 1))
		clk.Go("host", func(r *vclock.Runner) {
			for i := 0; i < 40; i++ {
				n := sizes[rng.IntN(len(sizes))]
				start := rng.IntN(ns.Pages() - n)
				lpns := make([]int, n)
				for j := range lpns {
					lpns[j] = start + j
				}
				op, err := "write", error(nil)
				switch k := rng.IntN(4); {
				case k < 2:
					err = ns.WritePages(r, lpns)
				case k == 2:
					op, err = "read", ns.ReadPages(r, lpns)
				default:
					op, err = "trim", ns.TrimPages(r, lpns)
				}
				res.calls = append(res.calls, fmt.Sprintf("host%d %s %d@%d: %v at %v", h, op, n, start, err, r.Now()))
			}
		})
	}
	clk.Go("cut", func(r *vclock.Runner) {
		r.Sleep(cut)
		d.Sever()
	})
	clk.Wait()
	if reference && len(ns.free.items) != made {
		t.Fatalf("%d commands back on the free list, want the %d reference ones: the mix made stepped ones", len(ns.free.items), made)
	}
	res.kernel, res.ftl, res.nand = clk.Stats(), d.FTL.Stats(), d.Array.Stats()
	res.pcie = [2]int64{d.Link.BytesTransferred(pcie.HostToDevice), d.Link.BytesTransferred(pcie.DeviceToHost)}
	return res
}

// TestSteppedBlockCommandsRunAsBlocking holds the stepped block command
// bodies to the blocking one, run in one call: the same seeded mix
// completes every call at the same instant with the same status, after
// the same parks, with the same FTL, NAND and PCIe counts, and with
// strictly fewer hand-offs, since a stepped body asks for a call only
// for FTL GC.
func TestSteppedBlockCommandsRunAsBlocking(t *testing.T) {
	for _, qd := range []int{1, 32} {
		t.Run(fmt.Sprintf("qd%d", qd), func(t *testing.T) {
			const cut = 300 * time.Millisecond
			ref := blockMix(t, qd, cut, true)
			got := blockMix(t, qd, cut, false)
			if len(got.calls) != len(ref.calls) {
				t.Fatalf("%d calls stepped, %d blocking", len(got.calls), len(ref.calls))
			}
			var failed, gone int
			for i := range ref.calls {
				if got.calls[i] != ref.calls[i] {
					t.Fatalf("call %d: %q stepped, %q blocking", i, got.calls[i], ref.calls[i])
				}
			}
			for _, c := range ref.calls {
				switch {
				case strings.Contains(c, faults.ErrDeviceGone.Error()):
					gone++
				case !strings.Contains(c, "<nil>"):
					failed++
				}
			}
			if gone == 0 || gone == len(ref.calls) || failed == 0 {
				t.Errorf("%d of %d calls cut off, %d failed before: want the cut mid-mix, after faults", gone, len(ref.calls), failed)
			}
			if ref.ftl.GCRuns == 0 {
				t.Error("no FTL GC ran: the mix does not reach the GC call")
			}
			if got.kernel.Parks != ref.kernel.Parks {
				t.Errorf("%d parks stepped, %d blocking", got.kernel.Parks, ref.kernel.Parks)
			}
			if got.ftl != ref.ftl || got.nand != ref.nand || got.pcie != ref.pcie {
				t.Errorf("device counts differ: stepped ftl %+v nand %+v pcie %v; blocking ftl %+v nand %+v pcie %v",
					got.ftl, got.nand, got.pcie, ref.ftl, ref.nand, ref.pcie)
			}
			if got.kernel.Handoffs >= ref.kernel.Handoffs {
				t.Errorf("%d hand-offs stepped, not below the %d blocking", got.kernel.Handoffs, ref.kernel.Handoffs)
			}
			t.Logf("%d calls (%d failed, %d cut off), %d parks, %d GC runs; hand-offs %d blocking, %d stepped",
				len(ref.calls), failed, gone, ref.kernel.Parks, ref.ftl.GCRuns, ref.kernel.Handoffs, got.kernel.Handoffs)
		})
	}
}

// TestReusedBlockCommandsAcrossPowerCut: eight runners issue block I/O
// through one namespace, whose free list hands a command that has
// completed to whichever runner issues next, while a power cut lands
// mid-stream. Every call before the cut succeeds and every one after it
// fails with ErrDeviceGone, no command comes back to the free list twice,
// and the queues end with every submission completed. Run under -race
// (-count=20): a body or a completion that touched a command after
// posting it is reported as a data race with its reuse.
func TestReusedBlockCommandsAcrossPowerCut(t *testing.T) {
	cfg := testConfig()
	cfg.NVMe = nvme.Config{QueueDepth: 8, Slots: 4, DoorbellLatency: time.Microsecond, CompletionLatency: time.Microsecond}
	cfg.IOQueues = 2
	clk := vclock.New()
	d := New(clk, cfg)
	ns := d.BlockNamespace(0, 0)
	const runners, rounds = 8, 120
	var ok, gone [runners]int
	for i := 0; i < runners; i++ {
		lpns := make([]int, 20) // two commands at this MDTS
		for j := range lpns {
			lpns[j] = 32*i + j
		}
		clk.Go("host", func(r *vclock.Runner) {
			for n := 0; n < rounds; n++ {
				var err error
				switch n % 3 {
				case 0:
					err = ns.WritePages(r, lpns)
				case 1:
					err = ns.ReadPages(r, lpns)
				default:
					err = ns.TrimPages(r, lpns[:4])
				}
				switch {
				case err == nil && gone[i] == 0:
					ok[i]++
				case errors.Is(err, faults.ErrDeviceGone):
					gone[i]++
				default:
					t.Errorf("runner %d, call %d: err=%v after %d ErrDeviceGone", i, n, err, gone[i])
					return
				}
			}
		})
	}
	clk.Go("cut", func(r *vclock.Runner) {
		r.Sleep(50 * time.Millisecond)
		d.Sever()
	})
	clk.Wait()
	for i := range ok {
		if ok[i]+gone[i] != rounds || ok[i] == 0 || gone[i] == 0 {
			t.Errorf("runner %d: %d successes + %d failures, want %d calls on both sides of the cut", i, ok[i], gone[i], rounds)
		}
	}
	seen := map[*blkCmd]bool{}
	for _, c := range ns.free.items {
		if seen[c] {
			t.Fatal("a command came back to the free list twice")
		}
		seen[c] = true
	}
	for _, s := range d.QueueStats() {
		if s.Completed != s.Submitted || s.Outstanding != 0 {
			t.Errorf("%s: %d submitted, %d completed, %d outstanding", s.Name, s.Submitted, s.Completed, s.Outstanding)
		}
	}
}
