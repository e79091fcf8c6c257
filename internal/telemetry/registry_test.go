package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// fixedClock returns a clock pinned at start plus the accumulated steps.
func fixedClock(start time.Time) (func() time.Time, func(time.Duration)) {
	now := start
	return func() time.Time { return now }, func(d time.Duration) { now = now.Add(d) }
}

func TestRegistryClassCOW(t *testing.T) {
	r := NewRegistry("n1")
	a := r.Class("html")
	b := r.Class("html")
	if a != b {
		t.Fatal("Class returned distinct stats for the same name")
	}
	r.Class("cgi")
	got := r.Classes()
	if len(got) != 2 || got[0] != "cgi" || got[1] != "html" {
		t.Fatalf("Classes = %v, want [cgi html]", got)
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
}

// TestCounterConcurrent: racing increments are all counted.
func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 16000 {
		t.Fatalf("counter = %d, want 16000", c.Value())
	}
}

// TestRegistryConcurrent: goroutines racing to create and bump the same
// class all land in one bucket.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry("n1")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				r.Class("x").Requests.Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Class("x").Requests.Value(); got != 4000 {
		t.Fatalf("requests = %d, want 4000", got)
	}
}

// TestWritePrometheusGolden pins the clock and checks the full text
// exposition byte-for-byte, so any accidental format drift (labels,
// ordering, float rendering) fails loudly.
func TestWritePrometheusGolden(t *testing.T) {
	clock, advance := fixedClock(time.Unix(1700000000, 0))
	r := NewRegistryAt("front-1", clock)
	advance(90 * time.Second)

	html := r.Class("html")
	html.Requests.Add(5)
	html.Bytes.Add(4096)
	html.Errors.Inc()
	for i := 0; i < 5; i++ {
		html.Latency.Observe(2 * time.Millisecond)
	}
	cgi := r.Class("cgi")
	cgi.Requests.Inc()
	cgi.Latency.Observe(10 * time.Millisecond)

	r.Counter("relay_errors_total").Add(3)
	r.Gauge("pool_idle").Set(7)
	r.GaugeFunc("table_entries", func() float64 { return 42 })

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}

	// The log-linear histogram reports bucket upper bounds: 2ms lands in
	// the bucket whose bound is 2031615ns, 10ms in the 10223615ns bucket.
	const want = `# HELP webcluster_uptime_seconds Seconds since this node's registry was created.
# TYPE webcluster_uptime_seconds gauge
webcluster_uptime_seconds{node="front-1"} 90
# HELP webcluster_class_requests_total Requests served, by content class.
# TYPE webcluster_class_requests_total counter
webcluster_class_requests_total{node="front-1",class="cgi"} 1
webcluster_class_requests_total{node="front-1",class="html"} 5
# HELP webcluster_class_bytes_total Body bytes delivered, by content class.
# TYPE webcluster_class_bytes_total counter
webcluster_class_bytes_total{node="front-1",class="cgi"} 0
webcluster_class_bytes_total{node="front-1",class="html"} 4096
# HELP webcluster_class_errors_total Error responses (status >= 400), by content class.
# TYPE webcluster_class_errors_total counter
webcluster_class_errors_total{node="front-1",class="cgi"} 0
webcluster_class_errors_total{node="front-1",class="html"} 1
# HELP webcluster_class_request_seconds Request service latency, by content class.
# TYPE webcluster_class_request_seconds summary
webcluster_class_request_seconds{node="front-1",class="cgi",quantile="0.5"} 0.010223615
webcluster_class_request_seconds{node="front-1",class="cgi",quantile="0.9"} 0.010223615
webcluster_class_request_seconds{node="front-1",class="cgi",quantile="0.99"} 0.010223615
webcluster_class_request_seconds_sum{node="front-1",class="cgi"} 0.01
webcluster_class_request_seconds_count{node="front-1",class="cgi"} 1
webcluster_class_request_seconds{node="front-1",class="html",quantile="0.5"} 0.002031615
webcluster_class_request_seconds{node="front-1",class="html",quantile="0.9"} 0.002031615
webcluster_class_request_seconds{node="front-1",class="html",quantile="0.99"} 0.002031615
webcluster_class_request_seconds_sum{node="front-1",class="html"} 0.01
webcluster_class_request_seconds_count{node="front-1",class="html"} 5
# TYPE relay_errors_total counter
relay_errors_total{node="front-1"} 3
# TYPE pool_idle gauge
pool_idle{node="front-1"} 7
# TYPE table_entries gauge
table_entries{node="front-1"} 42
`
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
		// Pinpoint the first diverging line for fast triage.
		gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("first diff at line %d:\n got: %q\nwant: %q", i+1, gl[i], wl[i])
			}
		}
	}
}

func TestSnapshotAndMerge(t *testing.T) {
	clock, advance := fixedClock(time.Unix(1700000000, 0))
	a := NewRegistryAt("n1", clock)
	b := NewRegistryAt("n2", clock)
	advance(10 * time.Second)

	a.Class("html").Requests.Add(4)
	a.Class("html").Latency.Observe(time.Millisecond)
	b.Class("html").Requests.Add(6)
	b.Class("html").Latency.Observe(3 * time.Millisecond)
	b.Class("cgi").Requests.Add(1)
	a.Counter("relay_errors_total").Add(2)
	b.Counter("relay_errors_total").Add(5)

	merged := MergeSnapshots(a.Snapshot(), b.Snapshot())
	if merged.Node != "cluster" {
		t.Fatalf("merged node = %q", merged.Node)
	}
	if got := merged.Classes["html"].Requests; got != 10 {
		t.Fatalf("merged html requests = %d, want 10", got)
	}
	if got := merged.Classes["html"].Latency.Count; got != 2 {
		t.Fatalf("merged html latency count = %d, want 2", got)
	}
	if got := merged.Counters["relay_errors_total"]; got != 7 {
		t.Fatalf("merged counter = %d, want 7", got)
	}

	stats := Summarize(a.Snapshot(), b.Snapshot())
	if len(stats.Sources) != 2 || stats.Sources[0] != "n1" || stats.Sources[1] != "n2" {
		t.Fatalf("sources = %v", stats.Sources)
	}
	var html *ClassSummary
	for i := range stats.Classes {
		if stats.Classes[i].Class == "html" {
			html = &stats.Classes[i]
		}
	}
	if html == nil {
		t.Fatal("no html class in summary")
	}
	if html.Requests != 10 {
		t.Fatalf("summary html requests = %d, want 10", html.Requests)
	}
	if html.RatePerSec != 1.0 {
		t.Fatalf("summary html rate = %v, want 1.0 (10 reqs / 10s)", html.RatePerSec)
	}
	if html.P99Ns < int64(3*time.Millisecond) {
		t.Fatalf("summary html p99 = %d, want >= 3ms", html.P99Ns)
	}
}
