package mgmt

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// Wire protocol, shared by the broker and console connections: every
// message is one frame, a JSON header line followed by a raw payload.
//
//	{"dataLen":N,<message fields>}\n<N payload bytes>
//
// dataLen always leads the header, so the receiver learns the payload
// length without a second parse. Object bytes (Args.Data, Result.Data,
// ConsoleRequest.Data) travel as the payload, never inside the JSON; a
// zero-length payload reads back as nil.

// framePrefix opens every frame header line.
const framePrefix = `{"dataLen":`

// Frame size limits, checked before anything is allocated.
const (
	// maxFrameData bounds one frame's payload (one object body).
	maxFrameData = 256 << 20
	// maxFrameHeader bounds one header line; the largest headers are
	// list-shaped replies such as a whole-site tree or the audit log.
	maxFrameHeader = 64 << 20
)

// writeFrame writes msg as a frame header line followed by data, then
// flushes w.
func writeFrame(w *bufio.Writer, msg any, data []byte) error {
	fields, err := json.Marshal(msg)
	if err != nil {
		return fmt.Errorf("mgmt: encoding frame header: %w", err)
	}
	_, _ = w.WriteString(framePrefix)
	_, _ = w.Write(strconv.AppendInt(w.AvailableBuffer(), int64(len(data)), 10))
	if len(fields) > len("{}") {
		_ = w.WriteByte(',')
	}
	_, _ = w.Write(fields[1:])
	_ = w.WriteByte('\n')
	_, _ = w.Write(data)
	// bufio.Writer errors are sticky: Flush reports any earlier one.
	if err := w.Flush(); err != nil {
		return fmt.Errorf("mgmt: writing frame: %w", err)
	}
	return nil
}

// readFrame reads one frame, decoding its header into msg and returning
// its payload (nil when empty).
func readFrame(r *bufio.Reader, msg any) ([]byte, error) {
	line, err := readHeaderLine(r, maxFrameHeader)
	if err != nil {
		return nil, err
	}
	n, err := frameDataLen(line)
	if err != nil {
		return nil, err
	}
	// line may alias r's buffer: decode it before reading on.
	if err := json.Unmarshal(line, msg); err != nil {
		return nil, fmt.Errorf("mgmt: decoding frame header: %w", err)
	}
	if n == 0 {
		return nil, nil
	}
	data := make([]byte, n)
	if _, err := io.ReadFull(r, data); err != nil {
		return nil, fmt.Errorf("mgmt: reading %d-byte frame payload: %w", n, err)
	}
	return data, nil
}

// readHeaderLine reads up to and including the next newline, failing
// once the line passes max bytes.
func readHeaderLine(r *bufio.Reader, max int) ([]byte, error) {
	var line []byte
	for {
		frag, err := r.ReadSlice('\n')
		if len(line)+len(frag) > max {
			return nil, fmt.Errorf("mgmt: frame header longer than %d bytes", max)
		}
		switch {
		case err == nil && line == nil:
			return frag, nil
		case err == nil:
			return append(line, frag...), nil
		case errors.Is(err, bufio.ErrBufferFull):
			line = append(line, frag...)
		default:
			return nil, fmt.Errorf("mgmt: reading frame header: %w", err)
		}
	}
}

// frameDataLen parses and range-checks the dataLen leading a header line.
func frameDataLen(line []byte) (int, error) {
	rest, ok := bytes.CutPrefix(line, []byte(framePrefix))
	if !ok {
		return 0, fmt.Errorf("mgmt: frame header does not start with %s", framePrefix)
	}
	end := bytes.IndexAny(rest, ",}")
	if end < 0 {
		return 0, errors.New("mgmt: frame header has no dataLen value")
	}
	n, err := strconv.ParseInt(string(rest[:end]), 10, 64)
	if err != nil || n < 0 || n > maxFrameData {
		return 0, fmt.Errorf("mgmt: frame dataLen %q outside [0, %d]", rest[:end], maxFrameData)
	}
	return int(n), nil
}

// wireConn is the calling end of one framed request/response connection.
// It is not safe for concurrent use: its owner serializes exchanges.
// After a failed exchange the connection is closed, since a half-read
// frame leaves the stream out of step, and the next exchange dials
// afresh.
type wireConn struct {
	addr string
	// timeout bounds each exchange — dial, request and the whole reply,
	// payload included. 0 disables it.
	timeout time.Duration

	conn   net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	closed bool
}

// dial connects to addr.
func (w *wireConn) dial() error {
	conn, err := net.DialTimeout("tcp", w.addr, w.timeout)
	if err != nil {
		return fmt.Errorf("mgmt: dialing %s: %w", w.addr, err)
	}
	w.conn = conn
	w.br = bufio.NewReader(conn)
	w.bw = bufio.NewWriter(conn)
	return nil
}

// exchange sends req with payload data and decodes the reply frame into
// resp, returning the reply's payload.
func (w *wireConn) exchange(req any, data []byte, resp any) ([]byte, error) {
	if w.closed {
		return nil, fmt.Errorf("mgmt: connection to %s: %w", w.addr, net.ErrClosed)
	}
	if w.conn == nil {
		if err := w.dial(); err != nil {
			return nil, err
		}
	}
	var deadline time.Time
	if w.timeout > 0 {
		deadline = time.Now().Add(w.timeout)
	}
	// On failure the exchange's own error is the one worth reporting, so
	// each reset drops the Close error.
	if err := w.conn.SetDeadline(deadline); err != nil {
		_ = w.reset()
		return nil, fmt.Errorf("mgmt: arming deadline: %w", err)
	}
	if err := writeFrame(w.bw, req, data); err != nil {
		_ = w.reset()
		return nil, err
	}
	out, err := readFrame(w.br, resp)
	if err != nil {
		_ = w.reset()
		return nil, err
	}
	return out, nil
}

// reset drops the connection; the next exchange redials.
func (w *wireConn) reset() error {
	conn := w.conn
	w.conn, w.br, w.bw = nil, nil, nil
	if conn == nil {
		return nil
	}
	return conn.Close()
}

// close drops the connection for good: later exchanges fail.
func (w *wireConn) close() error {
	w.closed = true
	return w.reset()
}
