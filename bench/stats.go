package main

import (
	"math"
	"sort"
	"time"
)

// quartiles returns the three cut points Python's
// statistics.quantiles(v, n=4) gives (the exclusive method), so spreads
// computed here match the ones the acceptance driver computes. One value
// is its own quartiles.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// latSummary is one op type's virtual latency in µs with its sample count.
type latSummary struct {
	mean, p50, p99, p999 float64
	n                    int
}

// summarize reduces exact per-op samples to the mean and nearest-rank
// percentiles. It sorts s in place.
func summarize(s []time.Duration) latSummary {
	if len(s) == 0 {
		return latSummary{}
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	var sum float64
	for _, d := range s {
		sum += float64(d)
	}
	at := func(q float64) float64 {
		return float64(s[int(math.Ceil(q*float64(len(s))))-1]) / 1e3
	}
	return latSummary{mean: sum / float64(len(s)) / 1e3, p50: at(0.50), p99: at(0.99), p999: at(0.999), n: len(s)}
}

// tputStats reduces per-window op counts to the stability numbers: the
// coefficient of variation over base windows, and the worst group of ten
// consecutive base windows as a share of the mean group.
func tputStats(windows []int64) (cv, minFrac float64) {
	if len(windows) < 2 {
		return 0, 0
	}
	var sum, sq float64
	for _, w := range windows {
		sum += float64(w)
	}
	mean := sum / float64(len(windows))
	if mean == 0 {
		return 0, 0
	}
	for _, w := range windows {
		sq += (float64(w) - mean) * (float64(w) - mean)
	}
	cv = math.Sqrt(sq/float64(len(windows))) / mean

	const group = 10
	worst := math.Inf(1)
	for i := 0; i+group <= len(windows); i += group {
		var g float64
		for _, w := range windows[i : i+group] {
			g += float64(w)
		}
		worst = math.Min(worst, g)
	}
	if math.IsInf(worst, 1) {
		return cv, 0
	}
	return cv, worst / (mean * group)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
