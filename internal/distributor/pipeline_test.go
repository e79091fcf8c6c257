package distributor

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"webcluster/internal/httpx"
)

// writePipelined serializes reqs back-to-back into one buffer and sends
// it in a single Write, so every follow-up request is already sitting in
// the distributor's read buffer when it finishes the previous response —
// the distributor must drain them without re-entering the accept path.
func writePipelined(t *testing.T, conn net.Conn, paths []string, lastClose bool) {
	t.Helper()
	var buf bytes.Buffer
	for i, path := range paths {
		req := &httpx.Request{
			Method: "GET", Target: path, Path: path,
			Proto: httpx.Proto11, Header: httpx.NewHeader("Host", "c"),
		}
		if lastClose && i == len(paths)-1 {
			req.Header.Set("Connection", "close")
		}
		if err := httpx.WriteRequest(&buf, req); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
}

// TestPipelinedRequestsInOrder: N requests written in one burst come
// back as N complete responses, in request order, on one connection.
func TestPipelinedRequestsInOrder(t *testing.T) {
	tc := startCluster(t, 1)
	const n = 6
	var paths []string
	for i := 0; i < n; i++ {
		path := fmt.Sprintf("/pipe%d.html", i)
		tc.place(t, path, []byte(fmt.Sprintf("body-%d", i)), "n1")
		paths = append(paths, path)
	}

	conn, err := net.Dial("tcp", tc.front)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	writePipelined(t, conn, paths, true)

	br := bufio.NewReader(conn)
	for i := 0; i < n; i++ {
		resp, err := httpx.ReadResponse(br)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("response %d: status %d", i, resp.StatusCode)
		}
		if want := fmt.Sprintf("body-%d", i); string(resp.Body) != want {
			t.Fatalf("response %d out of order: body %q, want %q", i, resp.Body, want)
		}
	}
}

// TestPipelinedFailoverMidPipeline: a backend dies while a burst of
// pipelined requests is queued on the client connection. The requests
// already relayed are unaffected, and every queued request after the
// kill fails over to the surviving replica — same connection, same
// order, no interleaving.
func TestPipelinedFailoverMidPipeline(t *testing.T) {
	tc := startCluster(t, 2)
	const n = 8
	var paths []string
	for i := 0; i < n; i++ {
		path := fmt.Sprintf("/dual%d.html", i)
		tc.place(t, path, []byte(fmt.Sprintf("dual-%d", i)), "n1", "n2")
		paths = append(paths, path)
	}

	conn, err := net.Dial("tcp", tc.front)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	_ = conn.SetDeadline(time.Now().Add(15 * time.Second))
	writePipelined(t, conn, paths, true)

	br := bufio.NewReader(conn)
	killed := false
	for i := 0; i < n; i++ {
		resp, err := httpx.ReadResponse(br)
		if err != nil {
			t.Fatalf("response %d (after kill=%v): %v", i, killed, err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("response %d: status %d", i, resp.StatusCode)
		}
		if want := fmt.Sprintf("dual-%d", i); string(resp.Body) != want {
			t.Fatalf("response %d out of order: body %q, want %q", i, resp.Body, want)
		}
		if i == 1 && !killed {
			// Kill one backend with most of the pipeline still queued.
			// Whichever node the distributor was using, the remaining
			// requests must keep flowing (dead pooled conns get detected
			// and the relay retries or fails over per request).
			_ = tc.backends["n1"].Close()
			killed = true
		}
	}
}
