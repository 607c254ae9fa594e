package metrics

import (
	"fmt"
	"sort"
	"strings"
)

// Series is a per-interval time series: the per-second throughput and PCIe
// traffic plots in Figures 2, 4, 11 and 14 are Series of one sample per
// virtual second.
type Series struct {
	name    string
	seconds []float64
	values  []float64
}

// NewSeries returns an empty named series.
func NewSeries(name string) *Series { return &Series{name: name} }

// Name returns the series label.
func (s *Series) Name() string { return s.name }

// Append records value v at time t (seconds).
func (s *Series) Append(t, v float64) {
	s.seconds = append(s.seconds, t)
	s.values = append(s.values, v)
}

// Len returns the number of samples.
func (s *Series) Len() int {
	return len(s.values)
}

// At returns the i-th sample.
func (s *Series) At(i int) (t, v float64) {
	return s.seconds[i], s.values[i]
}

// Values returns a copy of the sample values.
func (s *Series) Values() []float64 {
	out := make([]float64, len(s.values))
	copy(out, s.values)
	return out
}

// Mean returns the arithmetic mean of the sample values, or 0 if empty.
func (s *Series) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.values {
		sum += v
	}
	return sum / float64(len(s.values))
}

// Min returns the smallest sample value, or 0 if empty.
func (s *Series) Min() float64 {
	if len(s.values) == 0 {
		return 0
	}
	m := s.values[0]
	for _, v := range s.values[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the largest sample value, or 0 if empty.
func (s *Series) Max() float64 {
	if len(s.values) == 0 {
		return 0
	}
	m := s.values[0]
	for _, v := range s.values[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// CountBelow returns how many samples are <= threshold.
func (s *Series) CountBelow(threshold float64) int {
	n := 0
	for _, v := range s.values {
		if v <= threshold {
			n++
		}
	}
	return n
}

// TSV renders the series as "t<TAB>v" lines, the format cmd/experiments
// emits for plotting.
func (s *Series) TSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", s.name)
	for i := range s.values {
		fmt.Fprintf(&b, "%.0f\t%.2f\n", s.seconds[i], s.values[i])
	}
	return b.String()
}

// CDF is an empirical cumulative distribution function over float samples,
// used for the Figure 5 PCIe-utilization CDF.
type CDF struct {
	samples []float64
	sorted  bool
}

// NewCDF returns an empty CDF.
func NewCDF() *CDF { return &CDF{} }

// Add records one sample.
func (c *CDF) Add(v float64) {
	c.samples = append(c.samples, v)
	c.sorted = false
}

// Len returns the number of samples.
func (c *CDF) Len() int {
	return len(c.samples)
}

func (c *CDF) sort() {
	if !c.sorted {
		sort.Float64s(c.samples)
		c.sorted = true
	}
}

// FractionAtMost returns P[X <= v].
func (c *CDF) FractionAtMost(v float64) float64 {
	if len(c.samples) == 0 {
		return 0
	}
	c.sort()
	i := sort.SearchFloat64s(c.samples, v)
	for i < len(c.samples) && c.samples[i] <= v {
		i++
	}
	return float64(i) / float64(len(c.samples))
}

// FractionAbove returns P[X > v].
func (c *CDF) FractionAbove(v float64) float64 { return 1 - c.FractionAtMost(v) }

// Quantile returns the q-quantile of the samples.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.samples) == 0 {
		return 0
	}
	c.sort()
	if q <= 0 {
		return c.samples[0]
	}
	if q >= 1 {
		return c.samples[len(c.samples)-1]
	}
	i := int(q * float64(len(c.samples)-1))
	return c.samples[i]
}

// Points returns (x, P[X<=x]) pairs at each distinct sample, suitable for
// plotting the CDF curve.
func (c *CDF) Points() (xs, ys []float64) {
	if len(c.samples) == 0 {
		return nil, nil
	}
	c.sort()
	n := float64(len(c.samples))
	for i, v := range c.samples {
		if i+1 < len(c.samples) && c.samples[i+1] == v {
			continue
		}
		xs = append(xs, v)
		ys = append(ys, float64(i+1)/n)
	}
	return xs, ys
}
