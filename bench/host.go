package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// hostSample is the benchmark process's own cost so far: the host clock,
// as opposed to the virtual clock the modelled hardware runs on.
type hostSample struct {
	wall       time.Time
	userNS     int64
	sysNS      int64
	mallocs    uint64
	allocBytes uint64
	gcCPUSec   float64
	totCPUSec  float64
}

func sampleHost() hostSample {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cpu := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(cpu)
	return hostSample{
		wall:       time.Now(),
		userNS:     ru.Utime.Nano(),
		sysNS:      ru.Stime.Nano(),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcCPUSec:   cpu[0].Value.Float64(),
		totCPUSec:  cpu[1].Value.Float64(),
	}
}

// peakRSSMB is the process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// hostMetrics reduces two samples around the measured window to per-op
// costs. User time, not wall, is the end-to-end cost: on this 2-core box
// wall and system time swing with the scheduler, user time does not.
func hostMetrics(e2e, layer map[string]float64, a, b hostSample, ops float64, window time.Duration) {
	wall := b.wall.Sub(a.wall)
	e2e["host_cpu_us_per_op"] = ratio(float64(b.userNS-a.userNS)/1e3, ops)
	e2e["host_allocs_per_op"] = ratio(float64(b.mallocs-a.mallocs), ops)
	layer["host.wall_us_per_op"] = ratio(float64(wall)/1e3, ops)
	layer["host.sys_us_per_op"] = ratio(float64(b.sysNS-a.sysNS)/1e3, ops)
	layer["host.alloc_kb_per_op"] = ratio(float64(b.allocBytes-a.allocBytes)/1024, ops)
	layer["host.gc_cpu_frac"] = ratio(b.gcCPUSec-a.gcCPUSec, b.totCPUSec-a.totCPUSec)
	layer["host.wall_s_per_vsec"] = ratio(wall.Seconds(), window.Seconds())
}
