package metrics

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d, want 100", h.Count())
	}
	if h.Min() != time.Microsecond {
		t.Fatalf("min = %v, want 1us", h.Min())
	}
	if h.Max() != 100*time.Microsecond {
		t.Fatalf("max = %v, want 100us", h.Max())
	}
	mean := h.Mean()
	if mean < 45*time.Microsecond || mean > 56*time.Microsecond {
		t.Fatalf("mean = %v, want ~50.5us", mean)
	}
}

func TestHistogramQuantilesOrdered(t *testing.T) {
	h := NewHistogram()
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 10000; i++ {
		h.Observe(time.Duration(rng.Intn(1_000_000)) * time.Nanosecond)
	}
	p50, p99, p999 := h.P50(), h.P99(), h.P999()
	if !(p50 <= p99 && p99 <= p999) {
		t.Fatalf("quantiles not ordered: p50=%v p99=%v p99.9=%v", p50, p99, p999)
	}
	if p999 > h.Max() {
		t.Fatalf("p99.9=%v exceeds max=%v", p999, h.Max())
	}
	if p50 < h.Min() {
		t.Fatalf("p50=%v below min=%v", p50, h.Min())
	}
	// Uniform [0,1ms): p50 should be near 500us (log buckets: allow 25%).
	if p50 < 350*time.Microsecond || p50 > 650*time.Microsecond {
		t.Fatalf("p50 = %v, want ~500us", p50)
	}
}

func TestHistogramRelativeError(t *testing.T) {
	// Property: a histogram of identical values reports quantiles within
	// the bucket's ~50% growth factor of the true value.
	f := func(raw uint32) bool {
		v := time.Duration(raw%1_000_000_000) + 1
		h := NewHistogram()
		for i := 0; i < 10; i++ {
			h.Observe(v)
		}
		q := h.Quantile(0.5)
		// Clamping to min/max makes identical-value histograms exact.
		return q == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Observe(-5 * time.Second)
	if h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("negative observation not clamped: min=%v max=%v", h.Min(), h.Max())
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	h.Observe(time.Second)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Fatal("reset did not clear histogram")
	}
	h.Observe(2 * time.Second)
	if h.Count() != 1 || h.Max() != 2*time.Second {
		t.Fatal("histogram unusable after reset")
	}
}

func TestSeries(t *testing.T) {
	s := NewSeries("tput")
	if s.Name() != "tput" {
		t.Fatalf("name = %q", s.Name())
	}
	for i := 0; i < 10; i++ {
		s.Append(float64(i), float64(i*10))
	}
	if s.Len() != 10 {
		t.Fatalf("len = %d", s.Len())
	}
	if s.Mean() != 45 {
		t.Fatalf("mean = %v, want 45", s.Mean())
	}
	if s.Min() != 0 || s.Max() != 90 {
		t.Fatalf("min/max = %v/%v, want 0/90", s.Min(), s.Max())
	}
	if n := s.CountBelow(30); n != 4 { // 0,10,20,30
		t.Fatalf("CountBelow(30) = %d, want 4", n)
	}
	tm, v := s.At(3)
	if tm != 3 || v != 30 {
		t.Fatalf("At(3) = (%v,%v)", tm, v)
	}
	tsv := s.TSV()
	if len(tsv) == 0 || tsv[0] != '#' {
		t.Fatalf("TSV missing header: %q", tsv)
	}
}

func TestSeriesEmpty(t *testing.T) {
	s := NewSeries("empty")
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 || s.Len() != 0 {
		t.Fatal("empty series should report zeros")
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF()
	if c.FractionAtMost(10) != 0 {
		t.Fatal("empty CDF FractionAtMost != 0")
	}
	for i := 1; i <= 100; i++ {
		c.Add(float64(i))
	}
	if c.Len() != 100 {
		t.Fatalf("len = %d", c.Len())
	}
	if f := c.FractionAtMost(50); f != 0.5 {
		t.Fatalf("F(50) = %v, want 0.5", f)
	}
	if f := c.FractionAbove(90); f < 0.0999 || f > 0.1001 {
		t.Fatalf("P[X>90] = %v, want 0.1", f)
	}
	if q := c.Quantile(0); q != 1 {
		t.Fatalf("q0 = %v, want 1", q)
	}
	if q := c.Quantile(1); q != 100 {
		t.Fatalf("q1 = %v, want 100", q)
	}
}

func TestCDFInterleavedAddQuery(t *testing.T) {
	c := NewCDF()
	c.Add(5)
	if f := c.FractionAtMost(5); f != 1 {
		t.Fatalf("F(5) = %v, want 1", f)
	}
	c.Add(10) // re-sorts lazily
	if f := c.FractionAtMost(5); f != 0.5 {
		t.Fatalf("F(5) after second add = %v, want 0.5", f)
	}
}

func TestCDFPoints(t *testing.T) {
	c := NewCDF()
	for _, v := range []float64{1, 1, 2, 3, 3, 3} {
		c.Add(v)
	}
	xs, ys := c.Points()
	if len(xs) != 3 {
		t.Fatalf("distinct points = %d, want 3", len(xs))
	}
	if ys[len(ys)-1] != 1 {
		t.Fatalf("final CDF value = %v, want 1", ys[len(ys)-1])
	}
	// Monotone non-decreasing.
	for i := 1; i < len(ys); i++ {
		if ys[i] < ys[i-1] || xs[i] < xs[i-1] {
			t.Fatalf("CDF points not monotone: %v %v", xs, ys)
		}
	}
}

func TestCDFQuantileMonotone(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		c := NewCDF()
		for _, v := range vals {
			c.Add(v)
		}
		prev := c.Quantile(0)
		for q := 0.1; q <= 1.0; q += 0.1 {
			cur := c.Quantile(q)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestASCIIChart(t *testing.T) {
	s := NewSeries("chart")
	for i := 0; i < 200; i++ {
		v := float64(i % 50)
		s.Append(float64(i), v)
	}
	out := s.ASCIIChart(60, 6)
	if !strings.Contains(out, "chart") || !strings.Contains(out, "#") {
		t.Fatalf("chart missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 6+3 { // header + 6 bands + axis + time labels
		t.Fatalf("chart has %d lines:\n%s", len(lines), out)
	}
	empty := NewSeries("empty")
	if !strings.Contains(empty.ASCIIChart(20, 4), "no samples") {
		t.Fatal("empty chart not handled")
	}
}
