package httpx

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"strings"
	"testing"
)

// chunkWriter accepts at most chunk bytes per Write and returns a nil
// error with the short count — the same contract as the fault injector's
// MaxWriteChunk rule. The net.Buffers generic fallback mishandles this
// shape (it treats n < len(p) with nil error as complete), so
// writeVectored's sequential path must retry until every byte lands.
type chunkWriter struct {
	buf   bytes.Buffer
	chunk int
}

func (w *chunkWriter) Write(p []byte) (int, error) {
	if len(p) > w.chunk {
		p = p[:w.chunk]
	}
	return w.buf.Write(p)
}

func TestWriteVectoredShortWrites(t *testing.T) {
	head := []byte("HTTP/1.1 200 OK\r\nContent-Length: 26\r\n\r\n")
	body := []byte("abcdefghijklmnopqrstuvwxyz")
	w := &chunkWriter{chunk: 3}
	n, err := writeVectored(w, head, body)
	if err != nil {
		t.Fatal(err)
	}
	want := string(head) + string(body)
	if n != int64(len(want)) || w.buf.String() != want {
		t.Fatalf("wrote %d %q, want %d %q", n, w.buf.String(), len(want), want)
	}
}

func TestWriteVectoredZeroByteWriter(t *testing.T) {
	w := &chunkWriter{chunk: 0} // accepts nothing: must not spin forever
	_, err := writeVectored(w, []byte("head"), []byte("body"))
	if err != io.ErrShortWrite {
		t.Fatalf("err = %v, want ErrShortWrite", err)
	}
}

// TestRelayResponseShortWriteClient drives the full relay path — header
// staging, first-chunk coalescing, remainder copy — through a writer
// that only takes a few bytes at a time, and checks the byte stream the
// client sees is complete and in order.
func TestRelayResponseShortWriteClient(t *testing.T) {
	body := bytes.Repeat([]byte("0123456789"), 400) // 4000 B, > one chunk at 7 B
	resp := &Response{
		Proto: Proto11, StatusCode: 200, Status: "OK",
		Header:        NewHeader("X-Served-By", "n1"),
		ContentLength: int64(len(body)),
	}
	w := &chunkWriter{chunk: 7}
	written, err := RelayResponse(w, resp, bytes.NewReader(body), Proto11, true)
	if err != nil {
		t.Fatal(err)
	}
	if written != int64(len(body)) {
		t.Fatalf("relayed %d body bytes, want %d", written, len(body))
	}
	got, err := ReadResponse(bufio.NewReader(bytes.NewReader(w.buf.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	if got.StatusCode != 200 || !bytes.Equal(got.Body, body) {
		t.Fatalf("client saw status %d, body %d bytes (want 200, %d)", got.StatusCode, len(got.Body), len(body))
	}
	if got.Header.Get("Connection") != "close" {
		t.Fatal("forceClose did not reach the client")
	}
}

func TestWriteRequestShortWriteWriter(t *testing.T) {
	req := &Request{
		Method: "GET", Target: "/a/b.html", Path: "/a/b.html",
		Proto:  Proto11,
		Header: NewHeader("Host", "c", "X-Token", strings.Repeat("t", 200)),
	}
	w := &chunkWriter{chunk: 5}
	if err := WriteRequest(w, req); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRequest(bufio.NewReader(bytes.NewReader(w.buf.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	if got.Method != "GET" || got.Target != "/a/b.html" || got.Header.Get("X-Token") != req.Header.Get("X-Token") {
		t.Fatalf("request did not survive the short-write writer: %+v", got)
	}
}

// TestRelayResponseVectoredTCP sends a large response over a real TCP
// pair so writeVectored takes the net.Buffers/writev path (the runtime
// loops over partial writevs internally) and verifies the exact bytes.
func TestRelayResponseVectoredTCP(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	body := bytes.Repeat([]byte("v"), 3*CopyBufSize+123)
	done := make(chan error, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			done <- err
			return
		}
		defer func() { _ = conn.Close() }()
		resp := &Response{
			Proto: Proto11, StatusCode: 200,
			Header:        NewHeader("X-Served-By", "n1"),
			ContentLength: int64(len(body)),
		}
		_, err = RelayResponse(conn, resp, bytes.NewReader(body), Proto11, true)
		done <- err
	}()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	got, err := ReadResponse(bufio.NewReader(conn))
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Body, body) {
		t.Fatalf("TCP vectored relay corrupted the body: got %d bytes, want %d", len(got.Body), len(body))
	}
}
