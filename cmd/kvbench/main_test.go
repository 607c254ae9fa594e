package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kvaccel/internal/trace"
)

// kvbench runs the CLI in-process and returns its exit code and output.
func kvbench(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestBadArgumentsExit2(t *testing.T) {
	cases := []struct {
		args []string
		want string // substring of stderr
	}{
		{[]string{"-engine", "bogus"}, `unknown engine "bogus"`},
		{[]string{"-workload", "bogus"}, `unknown workload "bogus"`},
		{[]string{"-rollback", "bogus"}, `unknown rollback scheme "bogus"`},
		{[]string{"-no-such-flag"}, "flag provided but not defined"},
		{[]string{"-engine", "rocksdb", "-shards", "2"}, "only kvaccel runs on more than one shard"},
		{[]string{"-engine", "adoc", "-shards", "2"}, "only kvaccel runs on more than one shard"},
	}
	for _, c := range cases {
		code, stdout, stderr := kvbench(c.args...)
		if code != 2 || !strings.Contains(stderr, c.want) || stdout != "" {
			t.Errorf("kvbench %v: exit %d, stdout %q, stderr %q; want exit 2, no stdout, stderr containing %q",
				c.args, code, stdout, stderr, c.want)
		}
	}
}

func TestFillRandomOnEveryEngine(t *testing.T) {
	for _, args := range [][]string{{"rocksdb"}, {"adoc"}, {"kvaccel"}, {"kvaccel", "-shards", "2"}} {
		engine := strings.Join(args, " ")
		code, stdout, stderr := kvbench(append([]string{"-workload", "fillrandom", "-duration", "1s", "-engine"}, args...)...)
		if code != 0 || stderr != "" {
			t.Errorf("%s: exit %d, stderr %q", engine, code, stderr)
			continue
		}
		var ops int64
		for _, line := range strings.Split(stdout, "\n") {
			if strings.HasPrefix(line, "writes") {
				fmt.Sscanf(line, "writes : %d ops", &ops)
			}
		}
		if ops <= 0 {
			t.Errorf("%s: no writes line with ops > 0 in:\n%s", engine, stdout)
		}
		if sharded := len(args) > 1; sharded != strings.Contains(stdout, "shard 1") {
			t.Errorf("%s: per-shard lines present = %v, want %v", engine, !sharded, sharded)
		}
	}
}

// TestTraceOutputs traces a stalling fillrandom (stock engine, slowdown
// off) and checks the summary reaches stdout and the file is a valid
// Chrome trace.
func TestTraceOutputs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	code, stdout, stderr := kvbench("-engine", "rocksdb", "-slowdown=false", "-duration", "2s",
		"-trace", path, "-trace-summary", "-series")
	if code != 0 || stderr != "" {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	for _, want := range []string{"\nstall report:", "\ntrace       : ", ".pcie-mbps"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout lacks %q", want)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if stats, err := trace.ValidateChromeTrace(data); err != nil || stats.SpanPairs == 0 {
		t.Errorf("trace file: %+v, %v", stats, err)
	}
}

// TestShardedRunTracesAndInjects: a sharded run takes the tracer and the
// fault plan like any other. The attribution table counts every span,
// however many the Chrome trace's ring dropped, and each group commit
// appends to its shard's WAL once — so wal-append spans number the
// group commits of both shards only if both shards' engines trace.
func TestShardedRunTracesAndInjects(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	code, stdout, stderr := kvbench("-engine", "kvaccel", "-shards", "2", "-duration", "2s",
		"-trace", path, "-trace-summary", "-faults-seed", "7")
	if code != 0 || stderr != "" {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	var groups, appends, injected, retried, failed int64
	for _, line := range strings.Split(stdout, "\n") {
		switch f := strings.Fields(line); {
		case strings.HasPrefix(line, "groups"):
			fmt.Sscanf(line, "groups      : %d commits", &groups)
		case len(f) > 1 && f[0] == "wal-append":
			fmt.Sscan(f[1], &appends)
		case strings.HasPrefix(line, "faults"):
			fmt.Sscanf(line, "faults      : injected=%d retried=%d failed=%d", &injected, &retried, &failed)
		}
	}
	if groups == 0 || appends != groups {
		t.Errorf("%d wal-append spans for %d group commits across both shards", appends, groups)
	}
	if injected == 0 || failed != 0 {
		t.Errorf("faults: injected=%d failed=%d, want injected > 0 and failed = 0", injected, failed)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if stats, err := trace.ValidateChromeTrace(data); err != nil || !bytes.Contains(data, []byte(`"name":"wal-append"`)) {
		t.Errorf("trace file: %+v, %v", stats, err)
	}
	if t.Failed() {
		t.Log(stdout)
	}
}

// TestDevLSMLine: a fill that stalls the Main-LSM redirects puts, and the
// dev-lsm line counts them beside the device's flushes and the puts that
// waited for the sealed buffer's flush; a run that redirects nothing
// prints no such line.
func TestDevLSMLine(t *testing.T) {
	code, stdout, stderr := kvbench("-engine", "kvaccel", "-workload", "fillrandom", "-duration", "4s", "-value-threshold", "0")
	if code != 0 || stderr != "" {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	var redirected, puts, flushes, waits int64
	var waitMS, flushMS float64
	for _, line := range strings.Split(stdout, "\n") {
		switch {
		case strings.HasPrefix(line, "kvaccel "):
			fmt.Sscanf(line, "kvaccel     : redirected=%d", &redirected)
		case strings.HasPrefix(line, "dev-lsm "):
			fmt.Sscanf(line, "dev-lsm     : puts=%d flushes=%d buffer-waits=%d wait=%f ms flush-mean=%f ms",
				&puts, &flushes, &waits, &waitMS, &flushMS)
		}
	}
	if redirected == 0 || puts < redirected || flushes == 0 || (waits == 0) != (waitMS == 0) || flushMS <= 0 {
		t.Errorf("redirected=%d, dev-lsm puts=%d flushes=%d buffer-waits=%d wait=%.1f ms flush-mean=%.1f ms:\n%s",
			redirected, puts, flushes, waits, waitMS, flushMS, stdout)
	}
	_, stdout, _ = kvbench("-engine", "rocksdb", "-workload", "fillrandom", "-duration", "1s")
	if strings.Contains(stdout, "dev-lsm") {
		t.Errorf("a run with no Dev-LSM puts printed a dev-lsm line:\n%s", stdout)
	}
}

func TestPowerCutTorturePasses(t *testing.T) {
	code, stdout, stderr := kvbench("-power-cuts", "1")
	if code != 0 || !strings.Contains(stdout, "all checks passed") {
		t.Errorf("exit %d, stderr %q, stdout:\n%s", code, stderr, stdout)
	}
}
