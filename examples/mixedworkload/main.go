// Mixedworkload: the paper's workload B/C scenario — one writer thread at
// full speed plus a reader thread at a 9:1 or 8:2 write/read mix —
// comparing the lazy and eager rollback schemes (§V-E). Eager rollback
// drains the Dev-LSM as soon as stalls clear, so more reads are served
// from the fast Main-LSM path.
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

// run drives the mix under scheme for d of virtual time, prints one
// summary line to w, and returns the run's counters.
func run(w io.Writer, scheme kvaccel.RollbackScheme, readFraction float64, d time.Duration) kvaccel.Stats {
	opt := kvaccel.DefaultOptions()
	opt.Rollback = scheme
	opt.CompactionThreads = 4
	db := kvaccel.Open(opt)

	var writes, reads int64
	var stop bool

	db.Run("reader", func(r *kvaccel.Runner) {
		rng := rand.New(rand.NewSource(99))
		ratio := readFraction / (1 - readFraction)
		for !stop {
			if float64(reads) >= float64(writes)*ratio {
				r.Sleep(time.Millisecond)
				continue
			}
			key := fmt.Sprintf("key%016d", rng.Intn(50_000))
			_, _, _ = db.Get(r, []byte(key))
			reads++
		}
	})

	db.Run("writer", func(r *kvaccel.Runner) {
		defer db.Close()
		rng := rand.New(rand.NewSource(7))
		value := make([]byte, 4096)
		deadline := r.Now().Add(d)
		for r.Now() < deadline {
			key := fmt.Sprintf("key%016d", rng.Intn(50_000))
			if err := db.Put(r, []byte(key), value); err != nil {
				panic(err)
			}
			writes++
		}
		stop = true
		s := db.Stats().KVAccel
		elapsed := r.Now().Seconds()
		fmt.Fprintf(w, "%-8s writes=%6.2f Kops/s reads=%5.2f Kops/s  rollbacks=%d dev-served-reads=%d\n",
			scheme, float64(writes)/elapsed/1000, float64(reads)/elapsed/1000,
			s.Rollbacks, s.DevGets)
	})
	db.Wait()
	return db.Stats()
}

func main() {
	readFrac := flag.Float64("readfraction", 0.2, "read share of operations (0.1 = workload B, 0.2 = workload C)")
	seconds := flag.Int("seconds", 20, "virtual seconds to run")
	flag.Parse()

	fmt.Printf("mixed workload: %.0f%% reads, %d virtual seconds, 4 compaction threads\n\n",
		*readFrac*100, *seconds)
	for _, scheme := range []kvaccel.RollbackScheme{kvaccel.RollbackLazy, kvaccel.RollbackEager} {
		run(os.Stdout, scheme, *readFrac, time.Duration(*seconds)*time.Second)
	}
}
