package mgmt

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"webcluster/internal/backend"
	"webcluster/internal/testutil"
)

// TestFrameHeaderGolden pins the frame layout byte for byte: dataLen
// leads the JSON header line, the message fields follow, and the payload
// comes raw after the newline.
func TestFrameHeaderGolden(t *testing.T) {
	cases := []struct {
		name string
		msg  any
		data []byte
		want string
	}{
		{
			name: "store-file request",
			msg:  request{ID: 7, Agent: "store-file", Args: &Args{Path: "/a b.html", Data: []byte("x\ny")}},
			data: []byte("x\ny"),
			want: `{"dataLen":3,"id":7,"agent":"store-file","args":{"path":"/a b.html"}}` + "\nx\ny",
		},
		{
			name: "synthetic placement",
			msg:  request{ID: 8, Agent: "store-file", Args: &Args{Path: "/s.html", Size: 64}},
			want: `{"dataLen":0,"id":8,"agent":"store-file","args":{"path":"/s.html","size":64}}` + "\n",
		},
		{
			name: "fetch-file response",
			msg:  response{ID: 9, OK: true, Result: &Result{Data: []byte{0}}},
			data: []byte{0},
			want: `{"dataLen":1,"id":9,"ok":true,"result":{}}` + "\n\x00",
		},
		{
			name: "no fields",
			msg:  struct{}{},
			want: `{"dataLen":0}` + "\n",
		},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		if err := writeFrame(w, tc.msg, tc.data); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := buf.String(); got != tc.want {
			t.Errorf("%s:\n got %q\nwant %q", tc.name, got, tc.want)
		}
	}
}

// TestReadFrameRejectsBadHeaders: a header that is malformed, claims a
// negative or oversized payload, or never ends must fail before the
// receiver allocates anything on its say-so.
func TestReadFrameRejectsBadHeaders(t *testing.T) {
	for _, line := range []string{
		`{"dataLen":-1,"id":1}`,
		`{"dataLen":` + strconv.Itoa(maxFrameData+1) + `,"id":1}`,
		`{"dataLen":1e3,"id":1}`,
		`{"dataLen":"3","id":1}`,
		`{"id":1,"dataLen":0}`,
		`{"dataLen":0,"id":}`,
		`{"dataLen":5`,
		`not json`,
	} {
		var req request
		if _, err := readFrame(bufio.NewReader(strings.NewReader(line+"\n")), &req); err == nil {
			t.Errorf("header %q accepted", line)
		}
	}
	long := strings.Repeat("a", 3*4096)
	if _, err := readHeaderLine(bufio.NewReader(strings.NewReader(long+"\n")), len(long)); err == nil {
		t.Error("header line past the limit accepted")
	}
	if got, err := readHeaderLine(bufio.NewReader(strings.NewReader(long+"\n")), len(long)+1); err != nil || len(got) != len(long)+1 {
		t.Errorf("header line at the limit: %d bytes, %v", len(got), err)
	}
}

// TestReadFrameTruncatedPayload: a stream that ends inside the payload is
// an error, never a short read passed off as the object.
func TestReadFrameTruncatedPayload(t *testing.T) {
	frame := `{"dataLen":10,"id":1,"ok":true,"result":{}}` + "\n" + "abc"
	var resp response
	_, err := readFrame(bufio.NewReader(strings.NewReader(frame)), &resp)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated payload: got %v, want unexpected EOF", err)
	}
}

// TestBrokerPayloadRoundTripRawBytes: object bytes that would break a
// line protocol (newlines, NULs, invalid UTF-8, a frame header of their
// own) survive store-file and fetch-file byte for byte.
func TestBrokerPayloadRoundTripRawBytes(t *testing.T) {
	testutil.NoLeaks(t)
	_, client := startBroker(t, env("n1"))
	for _, spec := range []Spec{{Name: "store-file", Op: OpStoreFile}, {Name: "fetch-file", Op: OpFetchFile}} {
		if err := client.Install(spec); err != nil {
			t.Fatal(err)
		}
	}
	payloads := map[string][]byte{
		"/newlines.bin": []byte("a\nb\n\n"),
		"/nul.bin":      {0, 0, 'x', 0},
		"/utf8.bin":     {0xff, 0xfe, 0xc3, 0x28, '"', '\\'},
		"/frame.bin":    []byte(`{"dataLen":5,"id":99}` + "\n"),
		"/large.bin":    bytes.Repeat([]byte{'\n', 0, 0xff}, 100_000),
	}
	for path, data := range payloads {
		if _, _, err := client.Invoke("store-file", Args{Path: path, Data: data}); err != nil {
			t.Fatalf("store %s: %v", path, err)
		}
		res, _, err := client.Invoke("fetch-file", Args{Path: path})
		if err != nil {
			t.Fatalf("fetch %s: %v", path, err)
		}
		if !bytes.Equal(res.Data, data) {
			t.Errorf("%s: fetched %d bytes, differ from the %d stored", path, len(res.Data), len(data))
		}
	}
}

// TestBrokerEmptyPayloadIsNil: an empty payload reaches ExecuteOp as nil,
// so a Size-only store-file still takes the synthetic placement path.
func TestBrokerEmptyPayloadIsNil(t *testing.T) {
	testutil.NoLeaks(t)
	store := &backend.SyntheticStore{}
	_, client := startBroker(t, Env{Node: "n1", Store: store})
	if err := client.Install(Spec{Name: "store-file", Op: OpStoreFile}); err != nil {
		t.Fatal(err)
	}
	res, _, err := client.Invoke("store-file", Args{Path: "/s.html", Data: []byte{}, Size: 64})
	if err != nil {
		t.Fatal(err)
	}
	if res.Message != "placed /s.html" || store.UsedBytes() != 64 {
		t.Fatalf("synthetic placement: %q, %d bytes used", res.Message, store.UsedBytes())
	}
}

// TestBrokerClientRecoversAfterFailedCall: a call that fails must not
// poison the client. The first reply is held back past the call
// deadline; the three calls after it must succeed, which the client only
// reports when each reply carries its request's ID.
func TestBrokerClientRecoversAfterFailedCall(t *testing.T) {
	testutil.NoLeaks(t)
	b := NewBroker(env("n1"))
	addr, err := b.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Close() }()
	proxy := startStallProxy(t, addr, 2*time.Second)
	defer proxy.close()

	client, err := DialBroker(proxy.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }()
	client.SetTimeout(150 * time.Millisecond)
	err = client.Install(Spec{Name: "ping", Op: OpPing})
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("stalled first call: want timeout, got %v", err)
	}
	client.SetTimeout(2 * time.Second)
	for i := 2; i <= 4; i++ {
		res, _, err := client.Invoke("ping", Args{})
		if err != nil {
			t.Fatalf("call %d after a timed-out call: %v", i, err)
		}
		if res.Message != "pong" {
			t.Fatalf("call %d: %q", i, res.Message)
		}
	}
}

// TestBrokerClientShortPayloadTimesOut: a reply whose payload stops short
// while the connection stays open fails at the call deadline instead of
// hanging, and the next call gets a whole reply on a fresh connection.
func TestBrokerClientShortPayloadTimesOut(t *testing.T) {
	testutil.NoLeaks(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for first := true; ; first = false {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func(first bool) {
				defer wg.Done()
				defer func() { _ = conn.Close() }()
				// Each connection answers one fetch with a 6-byte
				// payload; the first sends two bytes of it and holds on.
				var req request
				br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
				if _, err := readFrame(br, &req); err != nil {
					t.Errorf("fake broker: %v", err)
					return
				}
				if !first {
					_ = writeFrame(bw, response{ID: req.ID, OK: true, Result: &Result{}}, []byte("abcdef"))
					return
				}
				_, _ = bw.WriteString(`{"dataLen":6,"id":` + strconv.FormatInt(req.ID, 10) + `,"ok":true,"result":{}}` + "\nab")
				_ = bw.Flush()
				<-done
			}(first)
		}
	}()
	defer func() {
		close(done)
		_ = l.Close()
		wg.Wait()
	}()

	client, err := DialBroker(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }()
	client.SetTimeout(150 * time.Millisecond)
	start := time.Now()
	_, _, err = client.Invoke("fetch-file", Args{Path: "/x"})
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("short payload: want timeout, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("short payload took %v to fail", elapsed)
	}
	client.SetTimeout(2 * time.Second)
	res, _, err := client.Invoke("fetch-file", Args{Path: "/x"})
	if err != nil || string(res.Data) != "abcdef" {
		t.Fatalf("call after short payload: %q, %v", res.Data, err)
	}
}

// stallProxy relays TCP connections to a backend, holding back the
// backend's bytes on the first connection for a stall period. It knows
// nothing of the framing, so it stalls any request/response protocol.
type stallProxy struct {
	l     net.Listener
	stop  chan struct{}
	wg    sync.WaitGroup
	mu    sync.Mutex
	conns []net.Conn
}

func startStallProxy(t *testing.T, backendAddr string, stall time.Duration) *stallProxy {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &stallProxy{l: l, stop: make(chan struct{})}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for first := true; ; first = false {
			down, err := l.Accept()
			if err != nil {
				return
			}
			up, err := net.DialTimeout("tcp", backendAddr, time.Second)
			if err != nil {
				t.Errorf("proxy dial: %v", err)
				_ = down.Close()
				return
			}
			p.mu.Lock()
			p.conns = append(p.conns, down, up)
			p.mu.Unlock()
			delay := time.Duration(0)
			if first {
				delay = stall
			}
			p.wg.Add(2)
			go p.pipe(up, down, 0)
			go p.pipe(down, up, delay)
		}
	}()
	return p
}

func (p *stallProxy) addr() string { return p.l.Addr().String() }

// pipe copies src to dst after delay, then closes both ends.
func (p *stallProxy) pipe(dst, src net.Conn, delay time.Duration) {
	defer p.wg.Done()
	select {
	case <-time.After(delay):
		_, _ = io.Copy(dst, src)
	case <-p.stop:
	}
	_ = dst.Close()
	_ = src.Close()
}

func (p *stallProxy) close() {
	close(p.stop)
	_ = p.l.Close()
	p.mu.Lock()
	for _, c := range p.conns {
		_ = c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}
