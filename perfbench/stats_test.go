package main

import (
	"math"
	"reflect"
	"testing"
	"time"

	"webcluster/internal/telemetry"
)

func TestPercentileCountsFailuresAsInfinite(t *testing.T) {
	ok := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	if got := percentile(ok, 0, 0.5); got != 50 {
		t.Errorf("p50 = %v, want 50", got)
	}
	if got := percentile(ok, 0, 0.99); got != 100 {
		t.Errorf("p99 = %v, want 100", got)
	}
	// One failure in eleven reads: the top rank is the failure.
	if got := percentile(ok, 1, 0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 with a failure = %v, want +Inf", got)
	}
	if got := percentile(ok, 1, 0.5); got != 60 {
		t.Errorf("p50 with a failure = %v, want 60", got)
	}
	if got := percentile(nil, 3, 0.5); !math.IsInf(got, 1) {
		t.Errorf("p50 of failures only = %v, want +Inf", got)
	}
	if got := percentile(nil, 0, 0.5); !math.IsNaN(got) {
		t.Errorf("p50 of nothing = %v, want NaN", got)
	}
}

func TestSelfTimeIsTotalMinusPhases(t *testing.T) {
	sp := &telemetry.Span{ParseNs: 1000, RouteNs: 2000, CacheNs: 300, BackendNs: 40000, ReplyNs: 5000, TotalNs: 4_100_000}
	self := unattributed(sp)
	if want := int64(4_100_000 - 48_300); self != want {
		t.Fatalf("self time = %d, want %d", self, want)
	}
	if phases(sp)+self != sp.TotalNs {
		t.Fatalf("phases %d + self %d != total %d", phases(sp), self, sp.TotalNs)
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for v := int64(1); v <= 1000; v++ {
		h.observe(v * 1000)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 500e3}, {0.99, 990e3}} {
		got := h.quantile(c.q)
		if math.Abs(got-c.want)/c.want > 0.07 {
			t.Errorf("q%v = %v, want %v within 7%%", c.q, got, c.want)
		}
	}
	var empty hist
	if !math.IsNaN(empty.quantile(0.5)) {
		t.Error("empty histogram quantile is not NaN")
	}
}

func TestFiniteKeepsJSONNumbers(t *testing.T) {
	if finite(math.Inf(1)) != math.MaxFloat64 || finite(math.NaN()) != 0 || finite(2.5) != 2.5 {
		t.Fatal("finite does not map +Inf and NaN to JSON numbers")
	}
}

func TestZipfStreamIsStratified(t *testing.T) {
	cdf := zipfCDF(100, zipfS)
	z := newZipfStream(cdf, 3)
	counts := make([]int, len(cdf))
	for i := 0; i < zipfBlock; i++ {
		counts[z.draw()]++
	}
	prev := 0.0
	for r, c := range counts {
		want := (cdf[r] - prev) * zipfBlock
		prev = cdf[r]
		if math.Abs(float64(c)-want) > 2 {
			t.Errorf("rank %d drawn %d times in one block, want %.1f ± 2", r, c, want)
		}
	}
}

func TestQuietestPoolsLeastStolenWindows(t *testing.T) {
	m := marks{
		at:    []int64{0, 100, 200, 300, 400},
		cpu:   []time.Duration{0, 10, 20, 30, 40},
		steal: []int64{0, 5, 5, 9, 9}, // per window: 5, 0, 4, 0
	}
	sel := m.quietest()
	if want := []bool{false, true, false, true}; !reflect.DeepEqual(sel, want) {
		t.Fatalf("quietest = %v, want %v", sel, want)
	}
	st := &readStats{
		lat:      []int64{7, 3, 9, 1},
		ends:     []int64{50, 150, 350, 999}, // the last is in-flight tail: window 3
		failEnds: []int64{120, 250},
	}
	p := poolReads(st, m, sel)
	if !reflect.DeepEqual(p.lat, []int64{1, 3, 9}) || p.failed != 1 || p.cpu != 20 || p.dur != 200 {
		t.Fatalf("pooled = %+v", p)
	}
	m.steal = nil
	for _, ok := range m.quietest() {
		if !ok {
			t.Fatal("without steal readings every window must be selected")
		}
	}
}
