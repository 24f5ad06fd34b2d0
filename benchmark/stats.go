//go:build linux

package main

import (
	"slices"
	"sort"
	"time"
)

// median returns the middle value of v (the mean of the two middle
// values for an even count), 0 for an empty slice. v is not modified.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// spread is the noise figure of a set of values as a share of their
// median: the distance between the quartiles, the driver's own measure,
// where there are enough values to have quartiles, else the distance
// between the lowest and the highest.
func spread(v []float64) float64 {
	m := median(v)
	if len(v) < 2 || m == 0 {
		return 0
	}
	if len(v) >= 4 {
		q1, q3 := quartiles(v)
		return (q3 - q1) / m
	}
	lo, hi := v[0], v[0]
	for _, x := range v[1:] {
		lo, hi = min(lo, x), max(hi, x)
	}
	return (hi - lo) / m
}

// percentileLadder is the set of percentiles the reports choose from,
// each with the share of samples that lie beyond it as 1/beyond.
var percentileLadder = []struct {
	q      float64
	beyond int
}{{0.5, 2}, {0.9, 10}, {0.99, 100}, {0.999, 1000}, {0.9999, 10000}}

// topPercentile is the highest ladder percentile that still has at least
// ten of n samples beyond it; 0 when even the median does not.
func topPercentile(n int) float64 {
	top := 0.0
	for _, p := range percentileLadder {
		if n >= 10*p.beyond {
			top = p.q
		}
	}
	return top
}

// samples collects per-operation latencies in nanoseconds.
type samples []int64

// percentile returns the nearest-rank q-quantile; the receiver is sorted
// in place.
func (s samples) percentile(q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	slices.Sort(s)
	i := int(q*float64(len(s))+0.9999999) - 1
	return time.Duration(s[min(max(i, 0), len(s)-1)])
}

// tail returns the q-quantile, lowered to the highest percentile the
// sample count supports when q has fewer than ten samples beyond it.
func (s samples) tail(q float64) time.Duration {
	return s.percentile(min(q, max(topPercentile(len(s)), 0.5)))
}

func usec(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func msec(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// worsening is how much worse cur is than base as a share of base, in
// the metric's own direction: positive is a regression.
func worsening(base, cur float64, better string) float64 {
	if base == 0 {
		if cur == base {
			return 0
		}
		base = 1e-12
	}
	d := (cur - base) / base
	if better == higher {
		d = -d
	}
	return d
}

// windowCounter attributes completed operations to fixed back-to-back
// windows of wall-clock time, so a phase yields one rate per window and
// reports their median.
type windowCounter struct {
	start time.Time
	width time.Duration
	ops   []int64
}

func newWindowCounter(n int, width time.Duration) *windowCounter {
	return &windowCounter{start: time.Now(), width: width, ops: make([]int64, n)}
}

// add books n operations that completed now; it reports false once the
// last window has closed.
func (w *windowCounter) add(n int) bool {
	k := int(time.Since(w.start) / w.width)
	if k >= len(w.ops) {
		return false
	}
	w.ops[k] += int64(n)
	return true
}

// rates returns the rate of each window in units of unit operations per
// second (1e6 for Mops/s), summing the counters of goroutines that
// shared the same clock.
func rates(unit float64, ws ...*windowCounter) []float64 {
	out := make([]float64, len(ws[0].ops))
	for _, w := range ws {
		for k, n := range w.ops {
			out[k] += float64(n) / w.width.Seconds() / unit
		}
	}
	return out
}
