package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count); NaN for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the "exclusive"
// method of Python's statistics.quantiles(xs, n=4), the definition the
// benchmark's spread rule is stated in. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		return math.NaN(), math.NaN()
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// lowQuartiles returns, for every position i, the lower quartile of
// reps[k][i] over the rows k by rank: the value with ⌊(n−1)/4⌋ faster ones
// among the n rows that have position i (the fastest for up to four rows).
// Positions are those of the first row.
func lowQuartiles(reps [][]float64) []float64 {
	if len(reps) == 0 {
		return nil
	}
	out := make([]float64, len(reps[0]))
	col := make([]float64, 0, len(reps))
	for i := range out {
		col = col[:0]
		for _, row := range reps {
			if i < len(row) {
				col = append(col, row[i])
			}
		}
		sort.Float64s(col)
		out[i] = col[(len(col)-1)/4]
	}
	return out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// regressed reports whether cur is worse than base by more than bound, a
// share of base. better is "lower" or "higher", as in BENCHMARK.json.
func regressed(base, cur, bound float64, better string) bool {
	if better == "higher" {
		return cur < base*(1-bound)
	}
	return cur > base*(1+bound)
}

// opCount tallies the operations the error ratio is taken over: sniffer
// calls (RunHours, DetectAll) and output checks.
type opCount struct {
	attempted, failed int
}

// record counts one operation, failed when ok is false.
func (o *opCount) record(ok bool) {
	o.attempted++
	if !ok {
		o.failed++
	}
}

// errorRatio is failed / attempted, 0 when nothing was attempted.
func (o opCount) errorRatio() float64 {
	return ratio(float64(o.failed), float64(o.attempted))
}

// ratio is a / b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// slope is the least-squares slope of ys over xs (0 for fewer than two
// distinct xs).
func slope(xs, ys []float64) float64 {
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
