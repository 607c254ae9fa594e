// Sharded: the hash-partitioned front-end. N independent KVACCEL shards
// share one simulated machine (one virtual clock, one host CPU pool, one
// dual-interface SSD); N writer threads drive them concurrently. A
// monitor prints a per-second dashboard with per-shard redirection
// counters, and the run ends with a cross-shard merged scan plus the
// aggregate-vs-per-shard stats breakdown.
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
	shards := flag.Int("shards", 4, "number of shards")
	seconds := flag.Int("seconds", 20, "virtual seconds to run")
	flag.Parse()
	run(os.Stdout, *shards, time.Duration(*seconds)*time.Second)
}

// run drives one writer per shard for d of virtual time, prints the
// dashboard and the epilogue to w, and returns the final counters.
func run(w io.Writer, shards int, d time.Duration) kvaccel.Stats {
	opt := kvaccel.DefaultOptions()
	opt.Shards = shards
	db := kvaccel.Open(opt)

	var writes int64
	running := shards

	// Monitor thread: one dashboard line per virtual second.
	db.Run("monitor", func(r *kvaccel.Runner) {
		var last int64
		fmt.Fprintln(w, "sec   Kops/s  per-shard redirected")
		for running > 0 {
			r.Sleep(time.Second)
			st := db.Stats()
			cur := writes
			fmt.Fprintf(w, "%3.0f  %7.1f ", r.Now().Seconds(), float64(cur-last)/1000)
			for _, s := range st.PerShard {
				fmt.Fprintf(w, " %8d", s.KVAccel.RedirectedPuts)
			}
			fmt.Fprintln(w)
			last = cur
		}
	})

	// One writer per shard; keys route by hash, so every writer spreads
	// over all shards — contention is on the shared hardware only.
	for i := 0; i < shards; i++ {
		i := i
		db.Run(fmt.Sprintf("writer-%d", i), func(r *kvaccel.Runner) {
			rng := rand.New(rand.NewSource(int64(i) + 1))
			value := make([]byte, 4096)
			for r.Now().Seconds() < d.Seconds() {
				k := fmt.Sprintf("key%016d", rng.Intn(200_000))
				if err := db.Put(r, []byte(k), value); err != nil {
					break
				}
				writes++
			}
			if running--; running == 0 {
				finish(w, db, r)
				db.Close()
			}
		})
	}
	db.Wait()
	return db.Stats()
}

// finish runs the epilogue on the last writer's runner: a cross-shard
// merged scan and the final stats breakdown.
func finish(w io.Writer, db *kvaccel.DB, r *kvaccel.Runner) {
	db.Rollback(r) // drain every shard's Dev-LSM

	it := db.NewIterator(r)
	defer it.Close()
	n := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		n++
	}
	fmt.Fprintf(w, "\nmerged scan : %d keys in global order across %d shards\n", n, db.NumShards())

	st := db.Stats()
	fmt.Fprintf(w, "aggregate   : puts=%d redirected=%d rollbacks=%d\n",
		st.KVAccel.NormalPuts+st.KVAccel.RedirectedPuts, st.KVAccel.RedirectedPuts, st.KVAccel.Rollbacks)
	for i, s := range st.PerShard {
		fmt.Fprintf(w, "  shard %d   : puts=%d redirected=%d rollbacks=%d stalls=%d\n",
			i, s.KVAccel.NormalPuts+s.KVAccel.RedirectedPuts,
			s.KVAccel.RedirectedPuts, s.KVAccel.Rollbacks, s.Main.TotalStalls())
	}
}
