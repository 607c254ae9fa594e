// Writeburst: the paper's motivating scenario (§I) — a sustained 4 KiB
// write burst that drives the Main-LSM into write stalls. With
// redirection enabled the burst keeps flowing into the Dev-LSM; the
// ablation (-redirect=false) shows the same burst hitting hard stalls.
// A monitor thread prints a per-second dashboard of the redirection in
// action.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"kvaccel"
)

func main() {
	redirect := flag.Bool("redirect", true, "enable KVACCEL's I/O redirection")
	seconds := flag.Int("seconds", 30, "virtual seconds to run")
	flag.Parse()
	burst(os.Stdout, *redirect, time.Duration(*seconds)*time.Second)
}

// burst writes for d of virtual time, prints the dashboard to w, drains
// the Dev-LSM, and returns the run's counters.
func burst(w io.Writer, redirect bool, d time.Duration) kvaccel.Stats {
	opt := kvaccel.DefaultOptions()
	opt.EnableRedirection = redirect
	opt.Rollback = kvaccel.RollbackDisabled // pure write phase: drain at the end
	db := kvaccel.Open(opt)

	var writes int64
	var done bool

	// Monitor thread: one dashboard line per virtual second.
	db.Run("monitor", func(r *kvaccel.Runner) {
		kv, dev := db.Internals()
		var last int64
		fmt.Fprintln(w, "sec   Kops/s  redirected  dev-pairs  L0  stalls")
		for !done {
			r.Sleep(time.Second)
			s := kv.Stats()
			h := kv.Main().Health()
			cur := s.NormalPuts + s.RedirectedPuts
			fmt.Fprintf(w, "%3.0f %8.2f %11d %10d %3d %7d\n",
				r.Now().Seconds(), float64(cur-last)/1000, s.RedirectedPuts,
				dev.Dev.Count(), h.L0Files, kv.Main().Stats().TotalStalls())
			last = cur
		}
	})

	db.Run("writer", func(r *kvaccel.Runner) {
		defer db.Close()
		rng := rand.New(rand.NewSource(42))
		value := make([]byte, 4096)
		deadline := r.Now().Add(d)
		for r.Now() < deadline {
			key := fmt.Sprintf("key%016d", rng.Intn(100_000))
			if err := db.Put(r, []byte(key), value); err != nil {
				panic(err)
			}
			writes++
		}
		done = true

		// End of the burst: drain the Dev-LSM back into the Main-LSM.
		kv, dev := db.Internals()
		if dev.Dev.Count() > 0 {
			t0 := r.Now()
			db.Rollback(r)
			fmt.Fprintf(w, "\nrollback: %d pairs in %v\n", kv.Stats().RollbackPairs, r.Now().Sub(t0))
		}
		s := kv.Stats()
		m := kv.Main().Stats()
		n := writes
		fmt.Fprintf(w, "\ntotal writes: %d (%.1f%% redirected) stalls=%d stall-time=%v\n",
			n, 100*float64(s.RedirectedPuts)/float64(n), m.TotalStalls(), m.StallTime)
	})
	db.Wait()
	return db.Stats()
}
