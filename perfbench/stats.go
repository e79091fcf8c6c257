package main

import (
	"math"
	"math/bits"
	"sort"
	"sync/atomic"
)

// percentile returns the nearest-rank q-quantile of ok together with failed
// extra samples that count as +Inf: a failed or wrong read misses every
// latency limit, so failures push the tail up instead of vanishing from it.
// ok must be sorted ascending. It returns NaN when there are no samples.
func percentile(ok []int64, failed int64, q float64) float64 {
	n := int64(len(ok)) + failed
	if n == 0 {
		return math.NaN()
	}
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > int64(len(ok)) {
		return math.Inf(1)
	}
	return float64(ok[rank-1])
}

// sortedCopy returns xs sorted ascending without touching the input.
func sortedCopy(xs []int64) []int64 {
	out := append([]int64(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// median of float64 samples (mean of the middle two for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// hist is a lock-free log-linear histogram of nanosecond samples with 16
// sub-buckets per power of two (at most ~6% relative error). The benchmark
// uses it where the program calls a timed wrapper from many goroutines.
type hist struct {
	count   atomic.Int64
	buckets [61 * 16]atomic.Int64
}

func histIndex(v int64) int {
	if v < 16 {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1
	sub := (uint64(v) >> uint(e-4)) & 15
	return (e-3)*16 + int(sub)
}

// histMid is the midpoint of bucket i.
func histMid(i int) float64 {
	if i < 16 {
		return float64(i)
	}
	e := uint(i/16 + 3)
	sub := uint64(i % 16)
	lower := (16 + sub) << (e - 4)
	width := uint64(1) << (e - 4)
	return float64(lower) + float64(width)/2
}

func (h *hist) observe(ns int64) {
	h.buckets[histIndex(ns)].Add(1)
	h.count.Add(1)
}

// quantile returns the q-quantile in nanoseconds (NaN when empty).
func (h *hist) quantile(q float64) float64 {
	n := h.count.Load()
	if n == 0 {
		return math.NaN()
	}
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if cum >= rank {
			return histMid(i)
		}
	}
	return histMid(len(h.buckets) - 1)
}

// cv is the coefficient of variation (population standard deviation over
// mean) of xs; 0 for an empty or all-zero input.
func cv(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return math.Sqrt(ss/float64(len(xs))) / mean
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
