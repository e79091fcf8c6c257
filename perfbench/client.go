package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strconv"
	"time"

	"webcluster/internal/content"
)

// readTimeout bounds one read, dial to last byte; a read that takes
// longer fails.
const readTimeout = 10 * time.Second

// chunk is the client's read size when streaming a body it does not keep.
const chunk = 64 << 10

// readStats accumulates one reader's results over one phase.
type readStats struct {
	lat      []int64 // verified read latency, request write to last body byte, ns
	ends     []int64 // when each verified read ended, unix ns
	failEnds []int64 // when each failed read ended, unix ns
	attempts int64
	failed   int64 // errors, non-200 answers and wrong bodies
	wrong    int64 // wrong bodies, stale versions included
	bytes    int64 // verified body bytes
	connects []int64
	records  []readRecord // traced phases only
	lastErr  string
}

// readRecord is one traced read as the client saw it.
type readRecord struct {
	trace   uint64
	obj     int32
	ok      bool
	connect int64 // ns, 0 when the read reused a connection
	ttfb    int64 // request write to first response byte, ns
	body    int64 // first response byte to last body byte, ns
	startNs int64 // unix ns
}

func (s *readStats) merge(o *readStats) {
	s.lat = append(s.lat, o.lat...)
	s.ends = append(s.ends, o.ends...)
	s.failEnds = append(s.failEnds, o.failEnds...)
	s.attempts += o.attempts
	s.failed += o.failed
	s.wrong += o.wrong
	s.bytes += o.bytes
	s.connects = append(s.connects, o.connects...)
	s.records = append(s.records, o.records...)
	if o.lastErr != "" {
		s.lastErr = o.lastErr
	}
}

// errWrongBody marks a response whose body the oracle rejected.
var errWrongBody = errors.New("wrong body")

// reader is one closed-loop client: it sends its next request as soon as
// the previous answer is complete and checked, with no think time.
type reader struct {
	addr   string
	objs   []*object
	http10 bool
	zipf   *zipfStream
	ids    *rand.Rand // trace IDs

	conn net.Conn
	br   *bufio.Reader
	head []byte
	body []byte // whole bodies of objects checked after the read ends
	// tile holds tilePat repeated past chunk+len(tilePat) bytes, so a
	// streamed chunk at any offset is checked with one comparison.
	tile    []byte
	tilePat []byte

	served []byte // X-Served-By of the current response
}

func newReader(addr string, objs []*object, cdf []float64, http10 bool, seed int64, id int) *reader {
	return &reader{
		addr:   addr,
		objs:   objs,
		http10: http10,
		zipf:   newZipfStream(cdf, streamSeed(seed, id)),
		ids:    rand.New(rand.NewSource(streamSeed(seed, 1000+id))),
		br:     bufio.NewReaderSize(nil, chunk),
	}
}

// run reads until the deadline passes, into st. traced reads carry a
// fresh X-Dist-Trace ID and are recorded one by one.
func (r *reader) run(until time.Time, traced bool, st *readStats) {
	for time.Now().Before(until) {
		r.readOne(r.zipf.draw(), traced, st)
	}
}

func (r *reader) close() {
	if r.conn != nil {
		_ = r.conn.Close()
		r.conn = nil
	}
}

func (r *reader) readOne(i int, traced bool, st *readStats) {
	o := r.objs[i]
	var traceID uint64
	if traced {
		traceID = r.ids.Uint64() | 1
	}
	var from int64
	if o.ver != nil {
		from = o.ver.committed.Load()
	}
	start := time.Now()
	connect, first, n, err := r.exchange(o, traceID, from)
	end := time.Now()
	st.attempts++
	if connect > 0 {
		st.connects = append(st.connects, connect)
	}
	ok := err == nil
	if ok {
		st.lat = append(st.lat, int64(end.Sub(start)))
		st.ends = append(st.ends, end.UnixNano())
		st.bytes += n
	} else {
		st.failed++
		st.failEnds = append(st.failEnds, end.UnixNano())
		if errors.Is(err, errWrongBody) {
			st.wrong++
		}
		st.lastErr = fmt.Sprintf("%s: %v", o.path, err)
		r.close()
	}
	if traced {
		rec := readRecord{trace: traceID, obj: int32(i), ok: ok, connect: connect, startNs: start.UnixNano()}
		if !first.IsZero() {
			rec.ttfb = int64(first.Sub(start)) - connect
			rec.body = int64(end.Sub(first))
		}
		st.records = append(st.records, rec)
	}
}

// exchange sends one GET for o and checks the answer. It returns the dial
// time (0 on a reused connection), when the first response byte arrived,
// and the verified body length.
func (r *reader) exchange(o *object, traceID uint64, from int64) (connect int64, first time.Time, n int64, err error) {
	if r.conn == nil {
		t := time.Now()
		conn, derr := net.DialTimeout("tcp", r.addr, readTimeout)
		if derr != nil {
			return 0, first, 0, fmt.Errorf("dial: %w", derr)
		}
		connect = int64(time.Since(t))
		if connect == 0 {
			connect = 1
		}
		r.conn = conn
		r.br.Reset(conn)
	}
	if err := r.conn.SetDeadline(time.Now().Add(readTimeout)); err != nil {
		return connect, first, 0, fmt.Errorf("deadline: %w", err)
	}
	r.head = appendRequest(r.head[:0], o.path, r.http10, traceID)
	if _, err := r.conn.Write(r.head); err != nil {
		return connect, first, 0, fmt.Errorf("write: %w", err)
	}
	if _, err := r.br.Peek(1); err != nil {
		return connect, first, 0, fmt.Errorf("awaiting response: %w", err)
	}
	first = time.Now()
	status, clen, closing, err := r.readHeader()
	if err != nil {
		return connect, first, 0, err
	}
	if clen < 0 {
		return connect, first, 0, errors.New("response without Content-Length")
	}
	if status != 200 {
		return connect, first, 0, fmt.Errorf("status %d", status)
	}
	if err := r.readBody(o, clen, from); err != nil {
		return connect, first, 0, err
	}
	if r.http10 || closing {
		// Wait for the server's FIN so it, not the client, holds the
		// TIME_WAIT state and client ports stay reusable.
		if _, err := r.br.Peek(1); err != io.EOF {
			return connect, first, 0, fmt.Errorf("expected close after response, got %v", err)
		}
		r.close()
	}
	return connect, first, clen, nil
}

func appendRequest(b []byte, path string, http10 bool, traceID uint64) []byte {
	b = append(b, "GET "...)
	b = append(b, path...)
	if http10 {
		b = append(b, " HTTP/1.0\r\nHost: cluster\r\n"...)
	} else {
		b = append(b, " HTTP/1.1\r\nHost: cluster\r\n"...)
	}
	if traceID != 0 {
		b = append(b, "X-Dist-Trace: "...)
		b = strconv.AppendUint(b, traceID, 16)
		b = append(b, "\r\n"...)
	}
	return append(b, "\r\n"...)
}

// readHeader parses the status line and the header fields the oracle
// needs: Content-Length (-1 when absent), X-Served-By and Connection.
func (r *reader) readHeader() (status int, clen int64, closing bool, err error) {
	line, err := r.br.ReadSlice('\n')
	if err != nil {
		return 0, 0, false, fmt.Errorf("status line: %w", err)
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, 0, false, fmt.Errorf("bad status line %q", line)
	}
	status, err = strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, 0, false, fmt.Errorf("bad status line %q", line)
	}
	clen = -1
	r.served = r.served[:0]
	for {
		line, err := r.br.ReadSlice('\n')
		if err != nil {
			return 0, 0, false, fmt.Errorf("header: %w", err)
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			return status, clen, closing, nil
		}
		colon := bytes.IndexByte(line, ':')
		if colon < 0 {
			return 0, 0, false, fmt.Errorf("bad header %q", line)
		}
		name, value := line[:colon], bytes.TrimSpace(line[colon+1:])
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			clen, err = strconv.ParseInt(string(value), 10, 64)
			if err != nil || clen < 0 {
				return 0, 0, false, fmt.Errorf("bad Content-Length %q", value)
			}
		case bytes.EqualFold(name, []byte("X-Served-By")):
			r.served = append(r.served, value...)
		case bytes.EqualFold(name, []byte("Connection")):
			closing = bytes.EqualFold(value, []byte("close"))
		}
	}
}

// readBody reads clen body bytes and checks them against the oracle:
//   - a static object must be its placed bytes or an Update version
//     between the one committed when the read started (from) and the
//     last one started by the time it ended;
//   - video is never updated and is checked as it streams;
//   - a dynamic body must name the path and the node that served it,
//     which must be one the object was placed on.
func (r *reader) readBody(o *object, clen, from int64) error {
	switch {
	case o.class == content.ClassVideo:
		return r.streamCheck(o, clen)
	case o.class.Dynamic():
		if clen > chunk {
			return fmt.Errorf("%w: %d-byte dynamic body", errWrongBody, clen)
		}
		if err := r.fill(clen); err != nil {
			return err
		}
		if !r.dynamicOK(o) {
			return fmt.Errorf("%w: dynamic body %q served by %q", errWrongBody, r.body, r.served)
		}
		return nil
	default:
		if clen != o.size {
			return fmt.Errorf("%w: %d bytes, want %d", errWrongBody, clen, o.size)
		}
		if err := r.fill(clen); err != nil {
			return err
		}
		to := o.ver.started.Load()
		for v := from; v <= to; v++ {
			if isRepeat(r.body, versionPattern(o.path, v)) {
				return nil
			}
		}
		return fmt.Errorf("%w: matches no version in [%d, %d]", errWrongBody, from, to)
	}
}

// fill reads exactly n body bytes into r.body.
func (r *reader) fill(n int64) error {
	if int64(cap(r.body)) < n {
		r.body = make([]byte, n)
	}
	r.body = r.body[:n]
	if _, err := io.ReadFull(r.br, r.body); err != nil {
		return fmt.Errorf("body: %w", err)
	}
	return nil
}

// streamCheck reads n bytes of a never-updated object in chunks, checking
// each against the placed pattern.
func (r *reader) streamCheck(o *object, n int64) error {
	if n != o.size {
		return fmt.Errorf("%w: %d bytes, want %d", errWrongBody, n, o.size)
	}
	pat := versionPattern(o.path, 0)
	if !bytes.Equal(pat, r.tilePat) {
		r.tilePat = pat
		r.tile = r.tile[:0]
		for len(r.tile) < chunk+len(pat) {
			r.tile = append(r.tile, pat...)
		}
	}
	if cap(r.body) < chunk {
		r.body = make([]byte, chunk)
	}
	buf := r.body[:chunk]
	var off int64
	for off < n {
		want := n - off
		if want > chunk {
			want = chunk
		}
		got, err := r.br.Read(buf[:want])
		if err != nil {
			return fmt.Errorf("body: %w", err)
		}
		p := int(off % int64(len(pat)))
		if !bytes.Equal(buf[:got], r.tile[p:p+got]) {
			return fmt.Errorf("%w: video bytes differ at offset %d", errWrongBody, off)
		}
		off += int64(got)
	}
	return nil
}

// dynamicOK checks r.body against the synthetic CGI/ASP handler output.
func (r *reader) dynamicOK(o *object) bool {
	placed := false
	for _, id := range o.nodes {
		if string(id) == string(r.served) {
			placed = true
			break
		}
	}
	if !placed {
		return false
	}
	kind := "asp"
	if o.class == content.ClassCGI {
		kind = "cgi"
	}
	want := "<html>" + kind + " output from " + string(r.served) + " for " + o.path + " q=</html>\n"
	return string(r.body) == want
}

// isRepeat reports whether body is pat repeated (the last copy possibly
// cut short): its first len(pat) bytes are pat and every later byte
// equals the one len(pat) before it.
func isRepeat(body, pat []byte) bool {
	if len(body) <= len(pat) {
		return bytes.Equal(body, pat[:len(body)])
	}
	return bytes.Equal(body[:len(pat)], pat) && bytes.Equal(body[len(pat):], body[:len(body)-len(pat)])
}
