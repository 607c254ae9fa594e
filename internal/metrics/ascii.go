package metrics

import (
	"fmt"
	"strings"
)

// ASCIIChart renders the series as a fixed-size terminal chart: columns
// are time buckets (each holding the max sample in its span, so stall
// valleys and bursts both survive downsampling), rows are value bands.
// The experiment harness prints these so each figure is eyeballable
// without leaving the terminal.
func (s *Series) ASCIIChart(width, height int) string {
	values := append([]float64(nil), s.values...)
	times := append([]float64(nil), s.seconds...)
	name := s.name

	if width < 8 {
		width = 8
	}
	if height < 2 {
		height = 2
	}
	if len(values) == 0 {
		return fmt.Sprintf("%s: (no samples)\n", name)
	}

	// Downsample into width buckets by max.
	cols := make([]float64, width)
	for i, v := range values {
		b := i * width / len(values)
		if v > cols[b] {
			cols[b] = v
		}
	}
	maxV := 0.0
	for _, v := range cols {
		if v > maxV {
			maxV = v
		}
	}
	if maxV == 0 {
		maxV = 1
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s  (max %.2f)\n", name, maxV)
	for row := height; row >= 1; row-- {
		lo := maxV * (float64(row) - 0.5) / float64(height)
		fmt.Fprintf(&b, "%8.1f |", maxV*float64(row)/float64(height))
		for _, v := range cols {
			switch {
			case v >= lo:
				b.WriteByte('#')
			case v > 0 && row == 1:
				b.WriteByte('.') // nonzero but below the lowest band
			default:
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%8s +%s\n", "", strings.Repeat("-", width))
	if len(times) > 0 {
		fmt.Fprintf(&b, "%8s  t=%.0f%st=%.0f\n", "", times[0],
			strings.Repeat(" ", max(1, width-12)), times[len(times)-1])
	}
	return b.String()
}
