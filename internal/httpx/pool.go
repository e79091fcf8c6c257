package httpx

import (
	"bufio"
	"io"
	"net"
	"sync"
)

// Pool sizing. Reader/writer buffers are sized for this system's messages
// (request lines plus a handful of headers fit in 4 KiB); copy buffers are
// 256 KiB so a large body relay moves data in a handful of syscalls
// without large per-request allocations.
const (
	readerBufSize = 4 << 10
	writerBufSize = 4 << 10
	// CopyBufSize is the size of the pooled buffers CopyBody relays with.
	CopyBufSize = 256 << 10
	// headerBufSize is the staging capacity for a serialized header
	// section (writeVectored); oversized sections grow the slice and the
	// release path drops outliers.
	headerBufSize    = 4 << 10
	maxHeaderBufSize = 16 << 10
)

// The buffer pools the message fast path draws from: bufio readers and
// writers, reusable Requests, relay copy buffers, header staging buffers
// and writev vectors. One set serves the whole process.
var (
	readerPool = sync.Pool{New: func() any {
		return bufio.NewReaderSize(nil, readerBufSize)
	}}
	writerPool = sync.Pool{New: func() any {
		return bufio.NewWriterSize(nil, writerBufSize)
	}}
	requestPool = sync.Pool{New: func() any {
		return &Request{Header: make(Header, 0, 8)}
	}}
	copyBufPool = sync.Pool{New: func() any {
		b := make([]byte, CopyBufSize)
		return &b
	}}
	headerBufPool = sync.Pool{New: func() any {
		b := make([]byte, 0, headerBufSize)
		return &b
	}}
	bufvecPool = sync.Pool{New: func() any {
		v := make(net.Buffers, 0, 2)
		return &v
	}}
)

// AcquireReader returns a pooled bufio.Reader reset to read from r.
// Release it with ReleaseReader once no buffered bytes are needed — for a
// persistent connection that means when the connection is closed, not
// between requests (the buffer may hold pipelined bytes).
func AcquireReader(r io.Reader) *bufio.Reader {
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(r)
	return br
}

// ReleaseReader returns br to the pool. The caller must not use br again.
func ReleaseReader(br *bufio.Reader) {
	if br == nil {
		return
	}
	br.Reset(nil)
	readerPool.Put(br)
}

// AcquireRequest returns a pooled Request ready for ReadRequestInto.
func AcquireRequest() *Request {
	return requestPool.Get().(*Request)
}

// ReleaseRequest returns req to the pool. Oversized body and header
// storage is dropped so one large upload doesn't pin memory forever.
func ReleaseRequest(req *Request) {
	if req == nil {
		return
	}
	if cap(req.Body) > CopyBufSize {
		req.Body = nil
	}
	if cap(req.Header) > maxHeaderLines {
		req.Header = nil
	}
	req.reset()
	requestPool.Put(req)
}

// acquireWriter returns a pooled bufio.Writer targeting w.
func acquireWriter(w io.Writer) *bufio.Writer {
	bw := writerPool.Get().(*bufio.Writer)
	bw.Reset(w)
	return bw
}

// releaseWriter returns bw to the pool, dropping any unflushed bytes from
// a failed write (Reset discards them).
func releaseWriter(bw *bufio.Writer) {
	bw.Reset(nil)
	writerPool.Put(bw)
}

// acquireCopyBuf returns a pooled CopyBufSize relay buffer.
func acquireCopyBuf() *[]byte {
	return copyBufPool.Get().(*[]byte)
}

// releaseCopyBuf returns a relay buffer to the pool.
func releaseCopyBuf(b *[]byte) {
	copyBufPool.Put(b)
}

// acquireHeaderBuf returns an empty staging buffer for a header section.
func acquireHeaderBuf() *[]byte {
	return headerBufPool.Get().(*[]byte)
}

// releaseHeaderBuf returns a staging buffer, dropping outliers a huge
// header section grew.
func releaseHeaderBuf(b *[]byte) {
	if cap(*b) > maxHeaderBufSize {
		return
	}
	*b = (*b)[:0]
	headerBufPool.Put(b)
}
