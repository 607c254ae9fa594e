// Command experiments regenerates the paper's evaluation (§VI): every
// figure and table, printed as labeled summary lines plus plot-ready TSV
// series.
//
// Usage:
//
//	experiments -run all                # everything, paper order
//	experiments -run fig11              # one experiment
//	experiments -run fig12 -scale 20 -duration 30s   # quicker, smaller
//
// Scale semantics: device bandwidth and engine buffers divide by -scale
// and per-op CPU costs multiply by it, so -duration 600s/scale reproduces
// the paper's 600-second dynamics; reported throughputs read as
// paper-values/scale.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"kvaccel/internal/harness"
)

func main() {
	var (
		run      = flag.String("run", "all", "experiment: all, fig2, fig4, fig11, fig12, fig13, tablev, tablevi, recovery, fig14")
		scale    = flag.Int("scale", 10, "device/CPU scale divisor (1 = the paper's real board)")
		duration = flag.Duration("duration", 0, "workload duration (default 600s/scale)")
		keyspace = flag.Int("keyspace", 100_000, "random key domain size")
		value    = flag.Int("value", 4096, "value size in bytes (Table IV: 4KiB)")
		seed     = flag.Int64("seed", 1, "workload RNG seed")
	)
	flag.Parse()

	p := harness.DefaultParams()
	p.Scale = *scale
	p.KeySpace = *keyspace
	p.ValueSize = *value
	p.Seed = *seed
	if *duration > 0 {
		p.Duration = *duration
	} else {
		p.Duration = 600 * time.Second / time.Duration(max(1, *scale))
	}

	w := os.Stdout
	fmt.Fprintf(w, "# KVACCEL experiment harness: scale=%d duration=%v keyspace=%d value=%dB\n\n",
		p.Scale, p.Duration, p.KeySpace, p.ValueSize)

	switch strings.ToLower(*run) {
	case "all":
		p.RunAll(w)
	case "fig2", "fig3", "fig2_3":
		p.Fig2_3(w)
	case "fig4", "fig5", "fig4_5":
		p.Fig4_5(w)
	case "fig11":
		p.Fig11(w)
	case "fig12":
		p.Fig12(w)
	case "fig13":
		p.Fig13(w)
	case "tablev":
		p.TableV(w)
	case "tablevi":
		p.TableVI(w)
	case "recovery":
		p.Recovery(w)
	case "fig14":
		p.Fig14(w)
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *run)
		flag.Usage()
		os.Exit(2)
	}
}
