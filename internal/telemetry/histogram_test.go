package telemetry

import (
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestBucketBoundaries(t *testing.T) {
	// Values below 2^subBits land in exact unit buckets.
	cases := []struct {
		v    int64
		name string
	}{
		{0, "zero"}, {1, "one"}, {31, "last-unit"},
		{32, "first-log"}, {33, "log+1"}, {63, "end-first-log"},
		{64, "second-log"}, {1 << 20, "1Mi"}, {1<<62 + 1, "huge"},
	}
	for _, c := range cases {
		idx := bucketIndex(c.v)
		if idx < 0 || idx >= numBuckets {
			t.Fatalf("%s: bucketIndex(%d) = %d out of range", c.name, c.v, idx)
		}
		// The bucket's upper bound must not be below the value itself
		// (the histogram reports upper bounds, never underestimates).
		if ub := bucketBound(idx); ub < c.v {
			t.Errorf("%s: bucketBound(%d) = %d < value %d", c.name, idx, ub, c.v)
		}
	}
	// Exact unit buckets: values < 32 map to their own index.
	for v := int64(0); v < 32; v++ {
		if got := bucketIndex(v); got != int(v) {
			t.Errorf("bucketIndex(%d) = %d, want %d", v, got, v)
		}
		if got := bucketBound(int(v)); got != v {
			t.Errorf("bucketBound(%d) = %d, want %d", v, got, v)
		}
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	h.ObserveNs(-5) // clamps to zero, still counted
	for i := int64(1); i <= 100; i++ {
		h.ObserveNs(i)
	}
	if got := h.Count(); got != 101 {
		t.Fatalf("Count = %d, want 101", got)
	}
	if got := h.Max(); got != 100 {
		t.Fatalf("Max = %d, want 100", got)
	}
	// Quantiles on a log-linear histogram report bucket upper bounds:
	// never below the true quantile, and within one bucket's resolution.
	p50 := h.Quantile(0.5)
	if p50 < 50 || p50 > 53 {
		t.Errorf("P50 = %d, want ~50 (upper bound within bucket width)", p50)
	}
	if q := h.Quantile(1.0); q < 100 {
		t.Errorf("P100 = %d, want >= 100", q)
	}
	h.Reset()
	if h.Count() != 0 || h.Sum() != 0 || h.Max() != 0 {
		t.Fatalf("Reset left state: count=%d sum=%d max=%d", h.Count(), h.Sum(), h.Max())
	}
}

// TestHistogramMean: the mean is exact (running sum over count), not a
// bucket estimate.
func TestHistogramMean(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 {
		t.Fatal("empty histogram mean not 0")
	}
	h.Observe(10 * time.Millisecond)
	h.Observe(30 * time.Millisecond)
	if h.Mean() != 20*time.Millisecond || h.Count() != 2 {
		t.Fatalf("mean/count = %v/%d, want 20ms/2", h.Mean(), h.Count())
	}
}

// TestPropertyQuantileMonotone: quantiles never decrease in q.
func TestPropertyQuantileMonotone(t *testing.T) {
	f := func(samples []int16) bool {
		var h Histogram
		for _, s := range samples {
			h.Observe(time.Duration(int(s)+40000) * time.Microsecond)
		}
		prev := time.Duration(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			cur := h.Quantile(q)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramObserveNs(t *testing.T) {
	var h Histogram
	h.Observe(3 * time.Millisecond)
	if h.Count() != 1 {
		t.Fatalf("Count = %d, want 1", h.Count())
	}
	if h.Sum() != 3*time.Millisecond {
		t.Fatalf("Sum = %v, want %v", h.Sum(), 3*time.Millisecond)
	}
}

// TestHistogramConcurrentObserve hammers one histogram from many
// goroutines (run under -race) and checks the tallies add up, including
// values straddling the linear/log boundary and the overflow bucket.
func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	values := []int64{0, 1, 31, 32, 63, 64, 1 << 10, 1 << 40, 1<<63 - 1}
	const workers = 8
	const rounds = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				h.ObserveNs(values[(seed+i)%len(values)])
			}
		}(w)
	}
	wg.Wait()
	if got, want := h.Count(), int64(workers*rounds); got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
	snap := h.Snapshot()
	var n int64
	for _, b := range snap.Buckets {
		n += b.Count
	}
	if n != int64(workers*rounds) {
		t.Fatalf("bucket counts sum to %d, want %d", n, workers*rounds)
	}
	if h.Max() != 1<<63-1 {
		t.Fatalf("Max = %d, want MaxInt64", h.Max())
	}
}

// TestSnapshotMergeConcurrent merges snapshots taken while observers are
// still writing (run under -race): merge totals must equal the final
// per-histogram totals once writers stop.
func TestSnapshotMergeConcurrent(t *testing.T) {
	var a, b Histogram
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
				a.ObserveNs(i%1000 + 1)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
				b.ObserveNs(i%100000 + 1)
			}
		}
	}()
	// Wait for both observers to record something, so the final quantile
	// assertions below have data regardless of scheduling.
	for a.Count() == 0 || b.Count() == 0 {
		runtime.Gosched()
	}
	// Take merged snapshots mid-flight; they only need to be self-
	// consistent (bucket sum == count is not guaranteed mid-observe since
	// count and bucket increments are separate atomics, but merge must
	// never lose or invent buckets relative to its inputs).
	for i := 0; i < 50; i++ {
		var m HistSnapshot
		sa, sb := a.Snapshot(), b.Snapshot()
		m.Merge(sa)
		m.Merge(sb)
		if m.Count != sa.Count+sb.Count {
			t.Fatalf("merged count %d != %d + %d", m.Count, sa.Count, sb.Count)
		}
		if m.SumNs != sa.SumNs+sb.SumNs {
			t.Fatalf("merged sum %d != %d + %d", m.SumNs, sa.SumNs, sb.SumNs)
		}
	}
	close(stop)
	wg.Wait()

	var m HistSnapshot
	m.Merge(a.Snapshot())
	m.Merge(b.Snapshot())
	if m.Count != a.Count()+b.Count() {
		t.Fatalf("final merged count %d, want %d", m.Count, a.Count()+b.Count())
	}
	var n int64
	for _, bk := range m.Buckets {
		n += bk.Count
	}
	if n != m.Count {
		t.Fatalf("final merged buckets sum %d, want %d", n, m.Count)
	}
	if m.MaxNs < int64(a.Max()) || m.MaxNs < int64(b.Max()) {
		t.Fatalf("merged max %d below inputs (%v, %v)", m.MaxNs, a.Max(), b.Max())
	}
	// Quantile sanity on the merged view.
	if q := m.Quantile(0.5); q <= 0 {
		t.Fatalf("merged P50 = %d, want > 0", q)
	}
}

func TestMergeDisjointBuckets(t *testing.T) {
	var a, b Histogram
	a.ObserveNs(1)
	a.ObserveNs(1000)
	b.ObserveNs(5)
	b.ObserveNs(1 << 30)
	var m HistSnapshot
	m.Merge(a.Snapshot())
	m.Merge(b.Snapshot())
	if m.Count != 4 {
		t.Fatalf("Count = %d, want 4", m.Count)
	}
	// Buckets must be index-sorted after merging interleaved inputs.
	for i := 1; i < len(m.Buckets); i++ {
		if m.Buckets[i-1].Index >= m.Buckets[i].Index {
			t.Fatalf("buckets not sorted: %v", m.Buckets)
		}
	}
}
