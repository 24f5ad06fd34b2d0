//go:build linux

package main

import (
	"math"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		in := append([]float64(nil), tc.in...)
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
		for i := range in {
			if in[i] != tc.in[i] {
				t.Errorf("median reordered its argument: %v -> %v", in, tc.in)
			}
		}
	}
}

func TestSpread(t *testing.T) {
	if got := spread([]float64{9, 10, 12}); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("spread = %v, want 0.3", got)
	}
	if got := spread([]float64{5}); got != 0 {
		t.Errorf("spread of one window = %v, want 0", got)
	}
	// Four values and more: the distance between the quartiles, so one
	// wild window does not set the figure.
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 100}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread of ten values = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

// The reports name the highest percentile that still has ten samples
// beyond it: p99 needs a thousand samples, the median twenty.
func TestTopPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9},
		{1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {100000, 0.9999}, {5000000, 0.9999},
	} {
		if got := topPercentile(tc.n); got != tc.want {
			t.Errorf("topPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var s samples
	for i := 100; i >= 1; i-- {
		s = append(s, int64(i))
	}
	for _, tc := range []struct {
		q    float64
		want time.Duration
	}{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got := s.percentile(tc.q); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	// 100 samples support p90 at most: asking the tail for p99 gets p90.
	if got := s.tail(0.99); got != 90 {
		t.Errorf("tail(0.99) of 100 samples = %v, want the p90 (90)", got)
	}
	if got := (samples{}).percentile(0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

func TestWorseningBothDirections(t *testing.T) {
	for _, tc := range []struct {
		base, cur float64
		better    string
		want      float64
	}{
		{100, 110, lower, 0.10},   // latency up: worse
		{100, 90, lower, -0.10},   // latency down: better
		{100, 90, higher, 0.10},   // throughput down: worse
		{100, 125, higher, -0.25}, // throughput up: better
		{100, 100, higher, 0},
	} {
		if got := worsening(tc.base, tc.cur, tc.better); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("worsening(%v, %v, %s) = %v, want %v", tc.base, tc.cur, tc.better, got, tc.want)
		}
	}
	if got := worsening(0, 0, lower); got != 0 {
		t.Errorf("worsening(0, 0) = %v, want 0", got)
	}
	if got := worsening(0, 1, lower); got <= 0 {
		t.Errorf("worsening(0, 1, lower) = %v, want a regression", got)
	}
}

func TestWindowCounterAttributesByTime(t *testing.T) {
	width := 50 * time.Millisecond
	w := &windowCounter{start: time.Now().Add(-width - width/2), width: width, ops: make([]int64, 3)}
	if !w.add(10) { // 1.5 windows in: second window
		t.Fatal("add inside the phase reported the phase over")
	}
	w.start = w.start.Add(-2 * width) // now 3.5 windows in
	if w.add(99) {
		t.Fatal("add after the last window reported the phase still open")
	}
	if w.ops[0] != 0 || w.ops[1] != 10 || w.ops[2] != 0 {
		t.Errorf("ops = %v, want [0 10 0]", w.ops)
	}
	other := &windowCounter{width: width, ops: []int64{5, 5, 5}}
	got := rates(1, w, other)
	want := []float64{100, 300, 100} // per second: count / 0.05 s
	for k := range want {
		if math.Abs(got[k]-want[k]) > 1e-9 {
			t.Errorf("rates = %v, want %v", got, want)
			break
		}
	}
}

// The driver computes spreads with Python's statistics.quantiles(v, n=4);
// -compare must draw the same quartiles.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5, 1, 3}, 1, 5},
	} {
		q1, q3 := quartiles(tc.in)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.in, q1, q3, tc.q1, tc.q3)
		}
	}
}
