// Package pcie models the host–device interconnect: a shared link with a
// bandwidth cap and per-transfer latency, plus the per-second traffic
// accounting Intel PCM provides in the paper (Figures 4, 5, 14).
//
// The paper's board is PCIe Gen2 ×8 — ~4 GB/s theoretical — deliberately
// mismatched against a ~630 MB/s NAND backend, so the link itself is
// rarely the bottleneck; what matters is *counting* the bytes that cross
// it each second, including the seconds in which the host moves nothing.
package pcie

import (
	"time"

	"kvaccel/internal/vclock"
)

// Direction distinguishes host-to-device from device-to-host traffic.
type Direction int

const (
	HostToDevice Direction = iota
	DeviceToHost
)

// Link is the shared interconnect.
type Link struct {
	res     *vclock.Resource
	mbps    float64
	latency time.Duration

	bytes   [2]int64 // per direction
	lastTot int64    // aggregate sampling cursor (SampleMBps)
	lastDir [2]int64 // per-direction sampling cursors (SampleDirMBps)
}

// Config holds link parameters.
type Config struct {
	// BandwidthMBps caps the link's transfer rate (MB/s).
	BandwidthMBps float64
	// Latency is the fixed per-transfer overhead (doorbell, completion).
	Latency time.Duration
	// Lanes is the number of independent transfers in flight; PCIe posts
	// many TLPs concurrently, so >1 avoids artificial serialization of
	// small commands. Bandwidth is still shared via chunked arbitration.
	Lanes int
}

// Gen2x8 returns the paper's PCIe Gen2 ×8 configuration.
func Gen2x8() Config {
	return Config{BandwidthMBps: 4000, Latency: 2 * time.Microsecond, Lanes: 4}
}

// NewLink builds a link.
func NewLink(cfg Config) *Link {
	if cfg.Lanes < 1 {
		cfg.Lanes = 1
	}
	return &Link{
		res:     vclock.NewResource(cfg.Lanes, "pcie"),
		mbps:    cfg.BandwidthMBps,
		latency: cfg.Latency,
	}
}

// BandwidthMBps returns the configured cap.
func (l *Link) BandwidthMBps() float64 { return l.mbps }

// Transfer moves n bytes across the link in direction dir, spending
// latency + n/bandwidth of virtual time. With multiple lanes the
// per-lane rate is scaled so aggregate throughput respects the cap.
func (l *Link) Transfer(r *vclock.Runner, dir Direction, n int) {
	if n < 0 {
		n = 0
	}
	d := l.latency
	if l.mbps > 0 {
		perLane := l.mbps / float64(l.res.Cap())
		d += time.Duration(float64(n) / (perLane * 1e6) * float64(time.Second))
	}
	l.res.Use(r, d)
	l.bytes[dir] += int64(n)
}

// BytesTransferred returns cumulative bytes for a direction.
func (l *Link) BytesTransferred(dir Direction) int64 {
	return l.bytes[dir]
}

// TotalBytes returns cumulative bytes in both directions.
func (l *Link) TotalBytes() int64 {
	return l.bytes[0] + l.bytes[1]
}

// SampleMBps returns traffic over the interval since the previous Sample
// call, in MB/s. Experiments call it once per virtual second, exactly as
// the paper samples Intel PCM at 1-second intervals.
func (l *Link) SampleMBps(interval time.Duration) float64 {
	tot := l.bytes[0] + l.bytes[1]
	delta := tot - l.lastTot
	l.lastTot = tot
	if interval <= 0 {
		return 0
	}
	return float64(delta) / 1e6 / interval.Seconds()
}

// SampleDirMBps returns one direction's traffic over the interval since
// the previous SampleDirMBps call for that direction, in MB/s. The
// per-direction cursors are independent of SampleMBps's aggregate
// cursor, so a sampler using one never perturbs (or double-counts
// against) a sampler using the other.
func (l *Link) SampleDirMBps(dir Direction, interval time.Duration) float64 {
	delta := l.bytes[dir] - l.lastDir[dir]
	l.lastDir[dir] = l.bytes[dir]
	if interval <= 0 {
		return 0
	}
	return float64(delta) / 1e6 / interval.Seconds()
}
