package faults

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// tcpPair returns two ends of a loopback TCP connection.
func tcpPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer func() { _ = l.Close() }()
	type res struct {
		conn net.Conn
		err  error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := l.Accept()
		ch <- res{c, err}
	}()
	client, err = net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatalf("accept: %v", r.err)
	}
	t.Cleanup(func() {
		_ = client.Close()
		_ = r.conn.Close()
	})
	return client, r.conn
}

func TestNilInjectorIsNoOp(t *testing.T) {
	var in *Injector
	if err := in.Fail("anything"); err != nil {
		t.Fatalf("nil Fail: %v", err)
	}
	if got := in.Seed(); got != 0 {
		t.Fatalf("nil Seed = %d", got)
	}
	if got := in.Fired("anything"); got != 0 {
		t.Fatalf("nil Fired = %d", got)
	}
	in.Clear("anything") // must not panic
	c, s := tcpPair(t)
	if wrapped := in.Conn("p", c); wrapped != c {
		t.Fatal("nil Conn must return the conn unchanged")
	}
	_ = s
	if l := in.Listener("p", nil); l != nil {
		t.Fatal("nil Listener(nil) must return nil")
	}
}

func TestFailRefuseAndHierarchy(t *testing.T) {
	in := New(1)
	in.Set("pool.dial", Rule{Refuse: true})
	if err := in.Fail("pool.dial/n1"); !errors.Is(err, ErrInjected) {
		t.Fatalf("family rule did not fire: %v", err)
	}
	if got := in.Fired("pool.dial/n1"); got != 1 {
		t.Fatalf("Fired = %d, want 1", got)
	}
	// An exact (inactive) rule shadows the family rule.
	in.Set("pool.dial/n2", Rule{})
	if err := in.Fail("pool.dial/n2"); err != nil {
		t.Fatalf("exact rule should shadow family refuse: %v", err)
	}
	in.Clear("pool.dial")
	if err := in.Fail("pool.dial/n1"); err != nil {
		t.Fatalf("cleared rule still firing: %v", err)
	}
}

func TestDropAfterBytesTruncatesStream(t *testing.T) {
	in := New(2)
	in.Set("p", Rule{DropAfterBytes: 8})
	client, server := tcpPair(t)
	fc := in.Conn("p", server)

	if _, err := fc.Write(make([]byte, 4)); err != nil {
		t.Fatalf("first write: %v", err)
	}
	// Second write reaches the 8-byte budget: the conn is cut.
	if _, err := fc.Write(make([]byte, 4)); err == nil {
		t.Fatal("write at budget should report the drop")
	}
	if _, err := fc.Write([]byte{0}); err == nil {
		t.Fatal("write after drop should fail")
	}
	got, err := io.ReadAll(client)
	if err != nil {
		t.Fatalf("peer read: %v", err)
	}
	if len(got) != 8 {
		t.Fatalf("peer saw %d bytes, want exactly the 8-byte budget", len(got))
	}
	if in.Fired("p") == 0 {
		t.Fatal("drop did not count as fired")
	}
}

func TestMaxWriteChunkShortensWrites(t *testing.T) {
	in := New(3)
	in.Set("p", Rule{MaxWriteChunk: 3})
	client, server := tcpPair(t)
	fc := in.Conn("p", server)
	n, err := fc.Write([]byte("0123456789"))
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	if n != 3 {
		t.Fatalf("short write returned n=%d, want 3", n)
	}
	buf := make([]byte, 16)
	_ = client.SetReadDeadline(time.Now().Add(2 * time.Second))
	rn, err := client.Read(buf)
	if err != nil {
		t.Fatalf("peer read: %v", err)
	}
	if string(buf[:rn]) != "012" {
		t.Fatalf("peer saw %q, want %q", buf[:rn], "012")
	}
}

func TestCorruptEveryNFlipsBytes(t *testing.T) {
	in := New(4)
	in.Set("p", Rule{CorruptEveryN: 2})
	client, server := tcpPair(t)
	fc := in.Conn("p", server)
	orig := []byte{0x10, 0x10, 0x10, 0x10}
	sent := append([]byte(nil), orig...)
	if _, err := fc.Write(sent); err != nil {
		t.Fatalf("write: %v", err)
	}
	if !bytes.Equal(sent, orig) {
		t.Fatal("corruption mutated the caller's buffer")
	}
	_ = fc.Close()
	got, err := io.ReadAll(client)
	if err != nil {
		t.Fatalf("peer read: %v", err)
	}
	want := []byte{0x10, 0x11, 0x10, 0x11} // every 2nd byte, low bit flipped
	if !bytes.Equal(got, want) {
		t.Fatalf("peer saw %x, want %x", got, want)
	}
}

func TestReadStallBoundedByDeadline(t *testing.T) {
	in := New(5)
	in.Set("p", Rule{ReadStall: time.Minute})
	_, server := tcpPair(t)
	fc := in.Conn("p", server)
	if err := fc.SetReadDeadline(time.Now().Add(50 * time.Millisecond)); err != nil {
		t.Fatalf("deadline: %v", err)
	}
	start := time.Now()
	_, err := fc.Read(make([]byte, 1))
	if err == nil {
		t.Fatal("stalled read returned no error")
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("want timeout error, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline-bounded stall took %v", elapsed)
	}
}

// TestReadStallDeadlineHidesPendingData: a stalled peer delivers nothing
// before the reader's deadline, even when the real socket already holds
// the reply. Ending the stall at the deadline and then reading the socket
// races the runtime's own deadline timer, and the read can return the
// pending bytes; this test repeats the read to catch that race.
func TestReadStallDeadlineHidesPendingData(t *testing.T) {
	in := New(8)
	in.Set("p", Rule{ReadStall: time.Minute})
	for i := 0; i < 20; i++ {
		client, server := tcpPair(t)
		if _, err := client.Write([]byte("reply")); err != nil {
			t.Fatalf("peer write: %v", err)
		}
		fc := in.Conn("p", server)
		if err := fc.SetDeadline(time.Now().Add(5 * time.Millisecond)); err != nil {
			t.Fatalf("deadline: %v", err)
		}
		n, err := fc.Read(make([]byte, 16))
		if n != 0 {
			t.Fatalf("read %d: stalled read delivered %d bytes before its deadline", i, n)
		}
		var nerr net.Error
		if !errors.As(err, &nerr) || !nerr.Timeout() {
			t.Fatalf("read %d: want timeout error, got %v", i, err)
		}
	}
}

func TestReadStallInterruptedByClose(t *testing.T) {
	in := New(6)
	in.Set("p", Rule{ReadStall: time.Minute})
	_, server := tcpPair(t)
	fc := in.Conn("p", server)
	done := make(chan error, 1)
	go func() {
		_, err := fc.Read(make([]byte, 1))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	_ = fc.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("read on closed conn returned no error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("close did not interrupt the stall")
	}
}

func TestRefuseOnLiveConn(t *testing.T) {
	in := New(7)
	client, server := tcpPair(t)
	fc := in.Conn("p", server)
	if _, err := fc.Write([]byte("ok")); err != nil {
		t.Fatalf("pre-rule write: %v", err)
	}
	in.Set("p", Rule{Refuse: true})
	if _, err := fc.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("refused write: %v", err)
	}
	buf := make([]byte, 4)
	_ = client.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, _ := client.Read(buf)
	if string(buf[:n]) != "ok" {
		t.Fatalf("peer saw %q before refusal, want %q", buf[:n], "ok")
	}
}

func TestProbabilityIsSeedDeterministic(t *testing.T) {
	outcomes := func(seed int64) []bool {
		in := New(seed)
		in.Set("p", Rule{Refuse: true, Probability: 0.5})
		out := make([]bool, 64)
		for i := range out {
			out[i] = in.Fail("p") != nil
		}
		return out
	}
	a, b := outcomes(42), outcomes(42)
	hits := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d", i)
		}
		if a[i] {
			hits++
		}
	}
	if hits == 0 || hits == len(a) {
		t.Fatalf("probability 0.5 fired %d/%d times — gate not mixing", hits, len(a))
	}
}

func TestRuleChangeResetsDropBudget(t *testing.T) {
	in := New(8)
	in.Set("p", Rule{DropAfterBytes: 4})
	_, server := tcpPair(t)
	fc := in.Conn("p", server)
	if _, err := fc.Write(make([]byte, 2)); err != nil {
		t.Fatalf("write under first generation: %v", err)
	}
	// Re-installing the rule starts a new generation: budget resets.
	in.Set("p", Rule{DropAfterBytes: 4})
	if _, err := fc.Write(make([]byte, 3)); err != nil {
		t.Fatalf("budget did not reset on rule change: %v", err)
	}
	if _, err := fc.Write(make([]byte, 2)); err == nil {
		t.Fatal("second-generation budget never tripped")
	}
}

func TestListenerRefusesThenRecovers(t *testing.T) {
	in := New(9)
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	l := in.Listener("accept", raw)
	defer func() { _ = l.Close() }()

	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()

	in.Set("accept", Rule{Refuse: true})
	refused, err := net.Dial("tcp", raw.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	// The refused conn is closed server-side: the client reads EOF.
	_ = refused.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, rerr := refused.Read(make([]byte, 1)); rerr == nil {
		t.Fatal("refused connection delivered data")
	}
	_ = refused.Close()

	in.Clear("accept")
	ok, err := net.Dial("tcp", raw.Addr().String())
	if err != nil {
		t.Fatalf("dial after clear: %v", err)
	}
	defer func() { _ = ok.Close() }()
	select {
	case c := <-accepted:
		_ = c.Close()
	case <-time.After(5 * time.Second):
		t.Fatal("accept never returned after rule cleared")
	}
	if in.Fired("accept") == 0 {
		t.Fatal("refusal did not count as fired")
	}
}

func TestLatencyDelaysOperations(t *testing.T) {
	in := New(10)
	in.Set("p", Rule{Latency: 60 * time.Millisecond})
	client, server := tcpPair(t)
	fc := in.Conn("p", server)
	go func() { _, _ = client.Write([]byte("x")) }()
	start := time.Now()
	if _, err := fc.Read(make([]byte, 1)); err != nil {
		t.Fatalf("read: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Fatalf("latency rule added only %v", elapsed)
	}
}
