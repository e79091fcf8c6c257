package distributor

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"webcluster/internal/backend"
	"webcluster/internal/httpx"
	"webcluster/internal/respcache"
	"webcluster/internal/testutil"
)

// withCache returns a startClusterOpts tweak enabling the response cache.
func withCache(c *respcache.Cache) func(*Options) {
	return func(o *Options) { o.Cache = c }
}

// backendRequests sums the html-class request counters across backends —
// the number of round trips that actually reached a back end.
func (tc *testCluster) backendRequests() int64 {
	var n int64
	for _, srv := range tc.backends {
		n += srv.Stats().Class("html").Requests.Value()
	}
	return n
}

// fetchHdr issues one request with extra header pairs on a fresh
// connection and returns the parsed response.
func fetchHdr(t *testing.T, addr, method, path string, hdr ...string) *httpx.Response {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	pairs := append([]string{"Host", "c", "Connection", "close"}, hdr...)
	req := &httpx.Request{
		Method: method, Target: path, Path: path,
		Proto: httpx.Proto11, Header: httpx.NewHeader(pairs...),
	}
	if err := httpx.WriteRequest(conn, req); err != nil {
		t.Fatal(err)
	}
	resp, err := httpx.ReadResponse(bufio.NewReader(conn))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestCacheHitSkipsBackend(t *testing.T) {
	rc := respcache.New(respcache.Options{FreshTTL: time.Hour})
	tc := startClusterOpts(t, 2, withCache(rc))
	body := []byte("<html>hot content</html>")
	tc.place(t, "/hot.html", body, "n1")

	resp := fetch(t, tc.front, "/hot.html", httpx.Proto11)
	if resp.StatusCode != 200 || !bytes.Equal(resp.Body, body) {
		t.Fatalf("miss fetch: status=%d body=%q", resp.StatusCode, resp.Body)
	}
	if got := resp.Header.Get("X-Dist-Cache"); got != "MISS" {
		t.Fatalf("first fetch verdict = %q, want MISS", got)
	}
	if resp.Header.Get("Etag") == "" || resp.Header.Get("Date") == "" {
		t.Fatal("cached response missing validators")
	}
	before := tc.backendRequests()
	for i := 0; i < 5; i++ {
		resp = fetch(t, tc.front, "/hot.html", httpx.Proto11)
		if resp.StatusCode != 200 || !bytes.Equal(resp.Body, body) {
			t.Fatalf("hit fetch %d: status=%d body=%q", i, resp.StatusCode, resp.Body)
		}
		if got := resp.Header.Get("X-Dist-Cache"); got != "HIT" {
			t.Fatalf("hit fetch %d verdict = %q", i, got)
		}
		if resp.Header.Get("Age") == "" {
			t.Fatalf("hit fetch %d missing Age", i)
		}
	}
	if after := tc.backendRequests(); after != before {
		t.Fatalf("cache hits reached a back end: %d round trips", after-before)
	}
	if st := rc.Stats(); st.Hits < 5 || st.Fills != 1 {
		t.Fatalf("cache stats = %+v", st)
	}
}

func TestCacheClientConditional(t *testing.T) {
	rc := respcache.New(respcache.Options{FreshTTL: time.Hour})
	tc := startClusterOpts(t, 1, withCache(rc))
	body := []byte("<html>conditional</html>")
	tc.place(t, "/cond.html", body, "n1")

	warm := fetch(t, tc.front, "/cond.html", httpx.Proto11)
	etag := warm.Header.Get("Etag")
	if etag == "" {
		t.Fatal("no Etag to condition on")
	}
	resp := fetchHdr(t, tc.front, "GET", "/cond.html", "If-None-Match", etag)
	if resp.StatusCode != 304 {
		t.Fatalf("matching If-None-Match: status = %d", resp.StatusCode)
	}
	if len(resp.Body) != 0 {
		t.Fatalf("304 carried a body: %q", resp.Body)
	}
	if resp.Header.Get("Etag") != etag {
		t.Fatal("304 lost the validator")
	}
	// a mismatched validator gets the full representation
	resp = fetchHdr(t, tc.front, "GET", "/cond.html", "If-None-Match", `"stale-tag"`)
	if resp.StatusCode != 200 || !bytes.Equal(resp.Body, body) {
		t.Fatalf("mismatched If-None-Match: status=%d body=%q", resp.StatusCode, resp.Body)
	}
	// The 304 is counted after its last byte reaches the client.
	testutil.Eventually(t, 5*time.Second, func() bool { return rc.Stats().NotModified >= 1 }, "304 never counted")
	if st := rc.Stats(); st.NotModified != 1 {
		t.Fatalf("notModified = %d, want 1", st.NotModified)
	}
}

func TestCacheHEADHit(t *testing.T) {
	rc := respcache.New(respcache.Options{FreshTTL: time.Hour})
	tc := startClusterOpts(t, 1, withCache(rc))
	body := []byte("<html>head me</html>")
	tc.place(t, "/head.html", body, "n1")
	fetch(t, tc.front, "/head.html", httpx.Proto11) // warm

	conn, err := net.Dial("tcp", tc.front)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	req := &httpx.Request{
		Method: "HEAD", Target: "/head.html", Path: "/head.html",
		Proto: httpx.Proto11, Header: httpx.NewHeader("Host", "c", "Connection", "close"),
	}
	if err := httpx.WriteRequest(conn, req); err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	out := string(raw)
	if !strings.Contains(out, "X-Dist-Cache: HIT") {
		t.Fatalf("HEAD not served from cache:\n%s", out)
	}
	if !strings.Contains(out, fmt.Sprintf("Content-Length: %d", len(body))) {
		t.Fatalf("HEAD lost the representation length:\n%s", out)
	}
	if strings.Contains(out, "head me") {
		t.Fatalf("HEAD carried a body:\n%s", out)
	}
}

func TestCacheCoalescedMiss(t *testing.T) {
	rc := respcache.New(respcache.Options{FreshTTL: time.Hour})
	tc := startClusterOpts(t, 1, withCache(rc))
	body := []byte("<html>one fetch to rule them all</html>")
	tc.place(t, "/surge.html", body, "n1")
	// slow the backend down so every concurrent requester arrives while
	// the leader's fetch is still in flight
	tc.backends["n1"].SetDelay(func(backend.ServedRequest) time.Duration {
		return 150 * time.Millisecond
	})

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", tc.front)
			if err != nil {
				errs <- err
				return
			}
			defer func() { _ = conn.Close() }()
			req := &httpx.Request{
				Method: "GET", Target: "/surge.html", Path: "/surge.html",
				Proto: httpx.Proto11, Header: httpx.NewHeader("Host", "c", "Connection", "close"),
			}
			if err := httpx.WriteRequest(conn, req); err != nil {
				errs <- err
				return
			}
			resp, err := httpx.ReadResponse(bufio.NewReader(conn))
			if err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != 200 || !bytes.Equal(resp.Body, body) {
				errs <- fmt.Errorf("status=%d body=%q", resp.StatusCode, resp.Body)
				return
			}
			if v := resp.Header.Get("X-Dist-Cache"); v != "HIT" && v != "MISS" {
				errs <- fmt.Errorf("verdict = %q", v)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := tc.backendRequests(); got != 1 {
		t.Fatalf("%d concurrent misses made %d backend fetches, want 1", clients, got)
	}
}

func TestCacheRevalidation(t *testing.T) {
	rc := respcache.New(respcache.Options{FreshTTL: 50 * time.Millisecond, StaleTTL: time.Hour})
	tc := startClusterOpts(t, 1, withCache(rc))
	body := []byte("<html>unchanged upstream</html>")
	tc.place(t, "/reval.html", body, "n1")

	fetch(t, tc.front, "/reval.html", httpx.Proto11) // fill
	time.Sleep(120 * time.Millisecond)               // let freshness lapse

	resp := fetch(t, tc.front, "/reval.html", httpx.Proto11)
	if resp.StatusCode != 200 || !bytes.Equal(resp.Body, body) {
		t.Fatalf("revalidated fetch: status=%d body=%q", resp.StatusCode, resp.Body)
	}
	if got := resp.Header.Get("X-Dist-Cache"); got != "REVALIDATED" {
		t.Fatalf("verdict = %q, want REVALIDATED (backend should have 304'd)", got)
	}
	// the refresh restored freshness: the next fetch is a plain hit
	resp = fetch(t, tc.front, "/reval.html", httpx.Proto11)
	if got := resp.Header.Get("X-Dist-Cache"); got != "HIT" {
		t.Fatalf("post-revalidation verdict = %q", got)
	}
	if st := rc.Stats(); st.Revalidated != 1 {
		t.Fatalf("revalidated = %d, want 1", st.Revalidated)
	}
}

func TestCacheStaleOnError(t *testing.T) {
	rc := respcache.New(respcache.Options{FreshTTL: 50 * time.Millisecond, StaleTTL: time.Hour})
	tc := startClusterOpts(t, 2, withCache(rc))
	body := []byte("<html>last known good</html>")
	tc.place(t, "/fragile.html", body, "n1", "n2")

	fetch(t, tc.front, "/fragile.html", httpx.Proto11) // fill
	time.Sleep(120 * time.Millisecond)                 // expire
	for _, srv := range tc.backends {                  // every replica down
		_ = srv.Close()
	}

	resp := fetch(t, tc.front, "/fragile.html", httpx.Proto11)
	if resp.StatusCode != 200 || !bytes.Equal(resp.Body, body) {
		t.Fatalf("stale-on-error: status=%d body=%q", resp.StatusCode, resp.Body)
	}
	if got := resp.Header.Get("X-Dist-Cache"); got != "STALE" {
		t.Fatalf("verdict = %q, want STALE", got)
	}
	if st := rc.Stats(); st.StaleServed == 0 {
		t.Fatalf("staleServed = 0: %+v", st)
	}
}

func TestCacheInvalidateNeverServesOldBody(t *testing.T) {
	rc := respcache.New(respcache.Options{FreshTTL: time.Hour})
	tc := startClusterOpts(t, 1, withCache(rc))
	v1 := []byte("<html>version one</html>")
	v2 := []byte("<html>version two, longer</html>")
	tc.place(t, "/mut.html", v1, "n1")

	fetch(t, tc.front, "/mut.html", httpx.Proto11) // cache v1

	// the management-plane mutation: new content lands on the back end,
	// then the cache entry is purged
	if err := tc.backends["n1"].Store().Delete("/mut.html"); err != nil {
		t.Fatal(err)
	}
	if err := tc.backends["n1"].Store().Put("/mut.html", v2); err != nil {
		t.Fatal(err)
	}
	tc.backends["n1"].InvalidateCache("/mut.html")
	if n := rc.Invalidate("/mut.html"); n != 1 {
		t.Fatalf("Invalidate dropped %d entries", n)
	}

	resp := fetch(t, tc.front, "/mut.html", httpx.Proto11)
	if !bytes.Equal(resp.Body, v2) {
		t.Fatalf("post-purge fetch returned %q, want the new body", resp.Body)
	}
	if got := resp.Header.Get("X-Dist-Cache"); got != "MISS" {
		t.Fatalf("post-purge verdict = %q", got)
	}
}

func TestCacheUncacheableStreams(t *testing.T) {
	// per-entry cap below the object size: the miss path must stream the
	// response through the normal relay instead of buffering it
	rc := respcache.New(respcache.Options{FreshTTL: time.Hour, MaxEntryBytes: 64})
	tc := startClusterOpts(t, 1, withCache(rc))
	body := bytes.Repeat([]byte("x"), 512)
	tc.place(t, "/large.html", body, "n1")

	for i := 0; i < 3; i++ {
		resp := fetch(t, tc.front, "/large.html", httpx.Proto11)
		if resp.StatusCode != 200 || !bytes.Equal(resp.Body, body) {
			t.Fatalf("fetch %d: status=%d len=%d", i, resp.StatusCode, len(resp.Body))
		}
		if v := resp.Header.Get("X-Dist-Cache"); v != "" {
			t.Fatalf("uncacheable response carried a cache verdict %q", v)
		}
	}
	// every fetch reached a back end; nothing was stored
	if got := tc.backendRequests(); got != 3 {
		t.Fatalf("backend round trips = %d, want 3", got)
	}
	if st := rc.Stats(); st.Entries != 0 {
		t.Fatalf("uncacheable body stored: %+v", st)
	}
}

func TestCacheDynamicBypassed(t *testing.T) {
	rc := respcache.New(respcache.Options{FreshTTL: time.Hour})
	tc := startClusterOpts(t, 1, withCache(rc))
	tc.backends["n1"].HandleFunc("/cgi-bin/now", func(*httpx.Request) ([]byte, float64, error) {
		return []byte("dynamic"), 0, nil
	})
	tc.place(t, "/cgi-bin/now", []byte("#!script\n"), "n1")

	for i := 0; i < 2; i++ {
		resp := fetch(t, tc.front, "/cgi-bin/now", httpx.Proto11)
		if resp.StatusCode != 200 {
			t.Fatalf("dynamic fetch %d: status=%d", i, resp.StatusCode)
		}
		if v := resp.Header.Get("X-Dist-Cache"); v != "" {
			t.Fatalf("dynamic response cached: verdict %q", v)
		}
	}
}
