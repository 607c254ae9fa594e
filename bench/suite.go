package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"time"
)

type suiteOpts struct {
	Seed     int64
	Seconds  float64
	Runs     int
	Trace    bool
	TraceDir string
	JSONPath string
}

// metricRuns is one end-to-end metric over a workload's runs.
type metricRuns struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Spread float64   `json:"spread"` // interquartile distance / median
}

type suiteEntry struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Problems  []string              `json:"problems,omitempty"`
	EndToEnd  map[string]metricRuns `json:"end_to_end"`
	// PerLayer is the last run's table: the traced pass when there was one.
	PerLayer map[string]float64 `json:"per_layer"`
}

// suiteDoc is the one JSON document a full run produces and -compare
// reads.
type suiteDoc struct {
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Runs      int                    `json:"runs"`
	Traced    bool                   `json:"traced"`
	Workloads map[string]*suiteEntry `json:"workloads"`
	Derived   map[string]float64     `json:"derived"`
}

// runSuite runs every workload in a child process of its own, strictly
// one after another, so each gets a fresh heap and its own peak RSS.
func runSuite(o suiteOpts) error {
	if o.Runs < 1 {
		o.Runs = 1
	}
	doc := &suiteDoc{Seed: o.Seed, Seconds: o.Seconds, Runs: o.Runs, Traced: o.Trace,
		Workloads: map[string]*suiteEntry{}, Derived: map[string]float64{}}
	var failed []string
	for _, spec := range workloads {
		e := &suiteEntry{Correct: true, EndToEnd: map[string]metricRuns{}}
		doc.Workloads[spec.Name] = e
		values := map[string][]float64{}
		var last *result
		for i := 0; i < o.Runs; i++ {
			res, err := runChild(spec.Name, o.Seed+int64(i), o.Seconds, false, "")
			if err != nil {
				return err
			}
			last = res
			e.Correct = e.Correct && res.Correct
			e.Attempted += res.Attempted
			e.Failed += res.Failed
			e.Problems = append(e.Problems, res.Problems...)
			for _, m := range endToEnd {
				values[m.Name] = append(values[m.Name], res.EndToEnd[m.Name])
			}
		}
		for _, m := range endToEnd {
			_, med, _ := quartiles(values[m.Name])
			e.EndToEnd[m.Name] = metricRuns{Unit: m.Unit, Values: values[m.Name], Median: med, Spread: spread(values[m.Name])}
		}
		e.PerLayer = last.PerLayer
		if o.Trace {
			res, err := runChild(spec.Name, o.Seed, o.Seconds, true, o.TraceDir)
			if err != nil {
				return err
			}
			e.Correct = e.Correct && res.Correct
			e.Problems = append(e.Problems, res.Problems...)
			e.PerLayer = res.PerLayer
			// What tracing costs the host: traced over untraced CPU per op.
			e.PerLayer["trace.overhead_frac"] = ratio(res.EndToEnd["host_cpu_us_per_op"], values["host_cpu_us_per_op"][0]) - 1
		}
		if !e.Correct {
			failed = append(failed, spec.Name)
		}
	}

	stall, stock := doc.Workloads["fill_stall"], doc.Workloads["fill_stock"]
	doc.Derived["fidelity.speedup_vs_stock"] = ratio(stall.EndToEnd["ops_per_vsec"].Median, stock.EndToEnd["ops_per_vsec"].Median)
	doc.Derived["fidelity.efficiency_vs_stock"] = ratio(stall.PerLayer["cpu.efficiency_mbps_per_cpu_pct"], stock.PerLayer["cpu.efficiency_mbps_per_cpu_pct"])
	doc.Derived["fidelity.cv_vs_stock"] = ratio(stall.PerLayer["workload.tput_cv"], stock.PerLayer["workload.tput_cv"])

	printSuite(os.Stdout, doc)
	if o.JSONPath != "" {
		b, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.JSONPath, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("correctness checks failed on %v", failed)
	}
	// The paper reports 1.37; this model gives about 1.3 at the frozen
	// window. Checked, not gated: an lsm gain that helps stock more is
	// not a regression. Short smoke windows have not reached the stall
	// regime, so the check applies at full length only.
	if s := doc.Derived["fidelity.speedup_vs_stock"]; o.Seconds >= runSeconds && s <= 1.10 {
		return fmt.Errorf("fidelity.speedup_vs_stock = %.3f, want > 1.10", s)
	}
	return nil
}

// runChild re-executes this binary for one workload and parses the full
// result from its last output line. The child is killed if it outlives
// its own watchdog.
func runChild(name string, seed int64, seconds float64, traced bool, traceDir string) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), watchdogLimit(seconds)+10*time.Second)
	defer cancel()
	t := "0"
	if traced {
		t = "1"
	}
	args := []string{"-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", t, "-full"}
	if traceDir != "" {
		args = append(args, "-trace-dir", traceDir)
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	lastLine := lines[len(lines)-1]
	os.Stdout.Write(bytes.Join(lines[:len(lines)-1], []byte("\n")))
	fmt.Println()
	var res result
	if err := json.Unmarshal(lastLine, &res); err != nil || res.Workload != name {
		if runErr == nil {
			runErr = fmt.Errorf("no result line")
		}
		return nil, fmt.Errorf("workload %s (seed %d): child failed: %v", name, seed, runErr)
	}
	return &res, nil // a child that printed a result but failed a check reports it in res.Correct
}

func printSuite(w io.Writer, doc *suiteDoc) {
	fmt.Fprintf(w, "\n== suite  seed %d  runs %d  seconds %g\n", doc.Seed, doc.Runs, doc.Seconds)
	for _, spec := range workloads {
		e := doc.Workloads[spec.Name]
		fmt.Fprintf(w, "%s  correct %v  attempted %d  failed %d\n", spec.Name, e.Correct, e.Attempted, e.Failed)
		for _, m := range endToEnd {
			r := e.EndToEnd[m.Name]
			fmt.Fprintf(w, "  %-22s %14.4f %-6s spread %5.1f%% over %d run(s)\n", m.Name, r.Median, m.Unit, 100*r.Spread, len(r.Values))
		}
		if v, ok := e.PerLayer["trace.overhead_frac"]; ok {
			fmt.Fprintf(w, "  %-22s %14.4f ratio\n", "trace.overhead_frac", v)
		}
	}
	for _, name := range []string{"fidelity.speedup_vs_stock", "fidelity.efficiency_vs_stock", "fidelity.cv_vs_stock"} {
		fmt.Fprintf(w, "%-30s %8.4f ratio\n", name, doc.Derived[name])
	}
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// the relative change, the bound and a verdict, and reports whether any
// metric regressed. A metric whose run-to-run spread on either side is
// wider than its bound cannot be called unchanged: it is unresolved.
func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	var a, b suiteDoc
	for _, f := range []struct {
		path string
		doc  *suiteDoc
	}{{pathA, &a}, {pathB, &b}} {
		raw, err := os.ReadFile(f.path)
		if err != nil {
			return false, err
		}
		if err := json.Unmarshal(raw, f.doc); err != nil {
			return false, fmt.Errorf("%s: %w", f.path, err)
		}
	}
	fmt.Fprintf(w, "%-13s %-20s %14s %14s %8s %6s  %s\n", "workload", "metric", "A", "B", "change", "bound", "verdict")
	for _, spec := range workloads {
		ea, eb := a.Workloads[spec.Name], b.Workloads[spec.Name]
		if ea == nil || eb == nil {
			return false, fmt.Errorf("workload %s is missing from one file", spec.Name)
		}
		for _, m := range endToEnd {
			ra, rb := ea.EndToEnd[m.Name], eb.EndToEnd[m.Name]
			change := ratio(rb.Median-ra.Median, ra.Median)
			worse := change
			if m.Better == higher {
				worse = -change
			}
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict, regressed = "regressed", true
			case ra.Spread > m.Bound || rb.Spread > m.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-13s %-20s %14.4f %14.4f %+7.1f%% %5.0f%%  %s\n", spec.Name, m.Name, ra.Median, rb.Median, 100*change, 100*m.Bound, verdict)
		}
	}
	return regressed, nil
}
