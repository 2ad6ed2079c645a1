package main

import (
	"math"
	"strings"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5, 5, 1, 9, 7}, 5},
	} {
		in := append([]float64(nil), tc.in...)
		if got := median(in); got != tc.want {
			t.Errorf("median(%v) = %g, want %g", tc.in, got, tc.want)
		}
		for i := range in {
			if in[i] != tc.in[i] {
				t.Fatalf("median reordered its input: %v", in)
			}
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

// The expected quartiles are Python's statistics.quantiles(xs, n=4), the
// definition the benchmark's spread rule is stated in.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 8.25},
		{[]float64{2.5, 2.7, 2.6, 3.1, 2.9, 2.8, 3.0, 2.4, 2.65, 2.75, 2.55}, 2.55, 2.9},
	} {
		q1, q3 := quartiles(tc.in)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", tc.in, q1, q3, tc.q1, tc.q3)
		}
	}
	if q1, _ := quartiles([]float64{1}); !math.IsNaN(q1) {
		t.Error("quartiles of one value are not NaN")
	}
}

func TestLowQuartiles(t *testing.T) {
	for _, tc := range []struct {
		reps [][]float64
		want []float64
	}{
		// Up to four repetitions: the fastest.
		{[][]float64{{3, 5, 2}, {4, 1, 2.5}, {2, 6}}, []float64{2, 1, 2}},
		// Five to eight: the second fastest, so one lucky sample does
		// not set the figure.
		{[][]float64{{9}, {1}, {7}, {5}, {3}}, []float64{3}},
		{[][]float64{{8}, {1}, {7}, {6}, {5}, {4}, {3}, {2}}, []float64{2}},
		// Nine to twelve: the third fastest.
		{[][]float64{{9}, {1}, {8}, {2}, {7}, {3}, {6}, {4}, {5}}, []float64{3}},
	} {
		got := lowQuartiles(tc.reps)
		if len(got) != len(tc.want) {
			t.Fatalf("lowQuartiles(%v) = %v, want %v", tc.reps, got, tc.want)
		}
		for i := range tc.want {
			if got[i] != tc.want[i] {
				t.Fatalf("lowQuartiles(%v) = %v, want %v", tc.reps, got, tc.want)
			}
		}
	}
	reps := [][]float64{{3, 1}, {2, 4}}
	lowQuartiles(reps)
	if reps[0][0] != 3 || reps[1][0] != 2 {
		t.Fatalf("lowQuartiles modified its input: %v", reps)
	}
	if lowQuartiles(nil) != nil {
		t.Error("lowQuartiles of no repetitions is not nil")
	}
}

func TestSpread(t *testing.T) {
	// Quartiles 1.25 and 3.75 around a median of 2.5: a spread of 1.
	if got := spread([]float64{1, 2, 3, 4}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %g, want 1", got)
	}
	if got := spread([]float64{7, 7, 7}); got != 0 {
		t.Errorf("spread of equal values = %g, want 0", got)
	}
}

func TestRegressed(t *testing.T) {
	for _, tc := range []struct {
		base, cur, bound float64
		better           string
		want             bool
	}{
		{10, 11, 0.1, "lower", false},   // exactly at the bound
		{10, 11.01, 0.1, "lower", true}, // past it
		{10, 5, 0.1, "lower", false},    // better
		{0.9, 0.81, 0.1, "higher", false},
		{0.9, 0.8, 0.1, "higher", true},
		{0.9, 1.0, 0.1, "higher", false},
	} {
		if got := regressed(tc.base, tc.cur, tc.bound, tc.better); got != tc.want {
			t.Errorf("regressed(%g→%g, bound %g, %s) = %t, want %t",
				tc.base, tc.cur, tc.bound, tc.better, got, tc.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := specMetric{Name: "run_s", Better: "lower", Bound: 0.1}
	steady := []float64{10, 10.1, 9.9, 10, 10.05}
	if v := verdict(lower, steady, []float64{10.2, 10.3, 10.1, 10.2, 10.25}); v != "ok" {
		t.Errorf("2%% slower within a 10%% bound: %s", v)
	}
	if v := verdict(lower, steady, []float64{12, 12.1, 11.9, 12, 12.05}); v != "regressed" {
		t.Errorf("20%% slower: %s", v)
	}
	noisy := []float64{5, 10, 15, 8, 12}
	if v := verdict(lower, steady, noisy); v != "unresolved" {
		t.Errorf("spread wider than the bound: %s", v)
	}
	if v := verdict(lower, steady, []float64{5, 8, 9, 6, 7.5}); v != "ok" {
		t.Errorf("noisy but every run faster: %s", v)
	}
	if v := verdict(lower, nil, steady); v != "missing" {
		t.Errorf("no base values: %s", v)
	}
}

func TestReadResultsSkipsOtherLines(t *testing.T) {
	in := `{"stamp":{"workload":"day-6k"}}
not json
{"correct":true,"attempted":3,"failed":0,"metrics":{"run_s":{"value":2.5,"unit":"s"}}}
{"correct":true,"attempted":3,"failed":0,"metrics":{"run_s":{"value":2.7,"unit":"s"}}}
`
	vals, err := readResults(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got := vals["run_s"]; len(got) != 2 || got[0] != 2.5 || got[1] != 2.7 {
		t.Fatalf("run_s values %v", got)
	}
}

func TestErrorRatioCount(t *testing.T) {
	var ops opCount
	if ops.errorRatio() != 0 {
		t.Fatal("empty count has a non-zero error ratio")
	}
	for _, ok := range []bool{true, true, false, true} {
		ops.record(ok)
	}
	if ops.attempted != 4 || ops.failed != 1 || ops.errorRatio() != 0.25 {
		t.Fatalf("count %+v, ratio %g; want 4 attempted, 1 failed, 0.25", ops, ops.errorRatio())
	}
}

func TestSlope(t *testing.T) {
	// Heap probes at 24…120 h growing 10 MB a day: 10/24 MB an hour.
	xs := []float64{24, 48, 72, 96, 120}
	ys := []float64{20, 30, 40, 50, 60}
	if got := 24 * slope(xs, ys); math.Abs(got-10) > 1e-9 {
		t.Errorf("slope = %g MB/day, want 10", got)
	}
	if slope([]float64{5}, []float64{1}) != 0 {
		t.Error("slope of one point is not 0")
	}
}

func TestQuality(t *testing.T) {
	var q quality
	for _, p := range [][2]bool{{true, true}, {true, true}, {true, false}, {false, true}, {false, false}} {
		q.add(p[0], p[1])
	}
	if q.precision() != 2.0/3 || q.recall() != 2.0/3 {
		t.Errorf("precision %g recall %g, want 2/3 each", q.precision(), q.recall())
	}
}
