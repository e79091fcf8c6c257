package distributor

// Front-end response cache integration. When Options.Cache is set, the
// distributor answers cacheable GET/HEAD requests from the respcache
// store instead of relaying them: fresh entries are served directly
// (zero backend round trips), expired entries are revalidated against a
// back end with a conditional GET (a 304 extends the entry without moving
// the body again), misses are fetched once per path no matter how many
// clients are waiting (singleflight), and when every replica of a path is
// down an expired copy within the stale window is served rather than a
// 502. Cache hits never touch the mapping table — no back-end connection
// is bound — so the client connection simply stays ESTABLISHED.

import (
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"webcluster/internal/config"
	"webcluster/internal/conntrack"
	"webcluster/internal/content"
	"webcluster/internal/httpx"
	"webcluster/internal/respcache"
	"webcluster/internal/telemetry"
)

// Cache returns the distributor's response cache, nil when disabled.
func (d *Distributor) Cache() *respcache.Cache { return d.cache }

// registerCacheMetrics exposes the response cache's counters through the
// telemetry registry so /metrics, /debug/vars and the cluster stats plane
// include cache behaviour (hit/miss/stale/coalesce rates, residency).
func registerCacheMetrics(reg *telemetry.Registry, cache *respcache.Cache) {
	views := map[string]func(respcache.Stats) float64{
		"respcache_hits":         func(s respcache.Stats) float64 { return float64(s.Hits) },
		"respcache_misses":       func(s respcache.Stats) float64 { return float64(s.Misses) },
		"respcache_revalidated":  func(s respcache.Stats) float64 { return float64(s.Revalidated) },
		"respcache_stale_served": func(s respcache.Stats) float64 { return float64(s.StaleServed) },
		"respcache_coalesced":    func(s respcache.Stats) float64 { return float64(s.Coalesced) },
		"respcache_evictions":    func(s respcache.Stats) float64 { return float64(s.Evictions) },
		"respcache_entries":      func(s respcache.Stats) float64 { return float64(s.Entries) },
		"respcache_bytes":        func(s respcache.Stats) float64 { return float64(s.Bytes) },
	}
	for name, view := range views {
		view := view
		reg.GaugeFunc(name, func() float64 { return view(cache.Stats()) })
	}
}

// cacheEligible reports whether the request may be answered from the
// response cache: safe method, static content, no query string.
func cacheEligible(req *httpx.Request) bool {
	if req.Method != "GET" && req.Method != "HEAD" {
		return false
	}
	return req.Query == "" && !req.IsDynamic()
}

// serveFromCache attempts to answer req from the cache. handled reports
// whether a response (or terminal failure) was written to the client;
// when false the caller falls through to the normal relay path. connOK
// mirrors relayRequest's contract.
func (d *Distributor) serveFromCache(client net.Conn, key conntrack.ClientKey, req *httpx.Request, sp *telemetry.Span) (handled, connOK bool) {
	start := time.Now()
	e, state := d.cache.Get(req.Path)
	sp.MarkCache()
	switch state {
	case respcache.Fresh:
		return true, d.writeCached(client, key, req, e, "HIT", start, sp)
	case respcache.Stale:
		if req.Method == "HEAD" {
			// HEAD carries no body either way; the relay path is cheap
			// and avoids leading a GET fetch for it
			return false, true
		}
		return d.serveStaleEntry(client, key, req, e, start, sp)
	default:
		if req.Method == "HEAD" {
			return false, true
		}
		return d.serveMiss(client, key, req, start, sp)
	}
}

// writeCached replays e to the client, honoring client conditionals
// (If-None-Match / If-Modified-Since → 304) and emitting Age plus the
// X-Dist-Cache verdict. Returns whether the client connection remains
// usable.
func (d *Distributor) writeCached(client net.Conn, key conntrack.ClientKey, req *httpx.Request, e *respcache.Entry, status string, start time.Time, sp *telemetry.Span) bool {
	routeCost := time.Since(start)
	notMod := false
	if inm := req.Header.Get("If-None-Match"); inm != "" {
		notMod = httpx.ETagMatch(inm, e.Stored.ETag)
	} else if ims := req.Header.Get("If-Modified-Since"); ims != "" && e.Stored.LastModified != "" {
		if ims == e.Stored.LastModified {
			notMod = true
		} else if t, err := httpx.ParseHTTPTime(ims); err == nil {
			if lm, lerr := httpx.ParseHTTPTime(e.Stored.LastModified); lerr == nil {
				notMod = !lm.After(t)
			}
		}
	}
	//distlint:ignore cowdiscipline ServeStored borrows the published snapshot read-only; nothing writes through the pointer
	err := httpx.ServeStored(client, &e.Stored, httpx.ServeOptions{
		Proto:       req.Proto,
		Head:        req.Method == "HEAD",
		NotModified: notMod,
		AgeSeconds:  e.AgeSeconds(d.cache.Now()),
		CacheStatus: status,
		ForceClose:  !req.KeepAlive(),
	})
	code := e.Stored.StatusCode
	sent := len(e.Stored.Body)
	if notMod {
		code, sent = 304, 0
		d.cache.CountNotModified()
	} else if req.Method == "HEAD" {
		sent = 0
	}
	procTime := time.Since(start)
	d.routed.Add(1)
	d.relayNs.Add(int64(routeCost))
	d.logAccess(key, req, code, sent)
	class := content.Classify(req.Path).String()
	sp.MarkReply()
	sp.SetClass(class)
	sp.SetStatus(code)
	sp.SetBytes(int64(sent))
	sp.SetCache(status)
	sp.SetOutcome("cached")
	cs := d.stats.Class(class)
	cs.Requests.Inc()
	cs.Bytes.Add(int64(sent))
	cs.Latency.Observe(procTime)
	return err == nil && req.KeepAlive()
}

// serveStaleIfAllowed serves an expired-but-within-stale-window entry —
// the degraded answer shared by the stale-on-error fallback (every
// replica of a path failing) and the admission controller's ShedStale
// rung (interactive requests degraded under overload). served is false
// when there is no entry to degrade to; the caller then falls through to
// its own failure path. Both call sites count the stale serve exactly
// once, here.
func (d *Distributor) serveStaleIfAllowed(client net.Conn, key conntrack.ClientKey, req *httpx.Request, stale *respcache.Entry, start time.Time, sp *telemetry.Span) (served, connOK bool) {
	if stale == nil {
		return false, true
	}
	d.cache.CountStale()
	return true, d.writeCached(client, key, req, stale, "STALE", start, sp)
}

// serveMiss handles a cache miss: join or lead the singleflight fetch for
// the path. The leader performs one backend exchange and every concurrent
// requester shares its result.
func (d *Distributor) serveMiss(client net.Conn, key conntrack.ClientKey, req *httpx.Request, start time.Time, sp *telemetry.Span) (handled, connOK bool) {
	f, leader := d.cache.BeginFlight(req.Path)
	if !leader {
		e, err := f.Wait()
		if e == nil || err != nil {
			// leader failed or the response was uncacheable: relay
			return false, true
		}
		sp.MarkCache() // waited on the flight leader
		return true, d.writeCached(client, key, req, e, "HIT", start, sp)
	}
	// double-check after winning the flight: a previous leader may have
	// filled the entry between our Get miss and BeginFlight
	if e, st := d.cache.Get(req.Path); st == respcache.Fresh {
		f.Finish(e, nil)
		return true, d.writeCached(client, key, req, e, "HIT", start, sp)
	}
	rec, err := d.table.Route(req.Path)
	if err != nil {
		f.Finish(nil, nil)
		return false, true // relay path emits the 404
	}
	node, err := d.pickReplica(rec, "")
	routeCost := time.Since(start)
	sp.MarkRoute()
	if err != nil {
		f.Finish(nil, err)
		return false, true // relay path emits the 503
	}
	counter := d.active[node]
	counter.Add(1)
	pc, resp, err := d.exchangeStart(node, req)
	counter.Add(-1)
	if err != nil {
		if alt, altErr := d.pickReplica(rec, node); altErr == nil {
			altCounter := d.active[alt]
			altCounter.Add(1)
			pc, resp, err = d.exchangeStart(alt, req)
			altCounter.Add(-1)
			node = alt
		}
	}
	if err != nil {
		f.Finish(nil, err)
		sp.MarkBackend()
		sp.SetStatus(502)
		sp.SetOutcome("bad-gateway")
		out := httpx.NewResponse(req.Proto, 502, []byte("backend error\n"))
		d.logAccess(key, req, 502, len(out.Body))
		_ = httpx.WriteResponse(client, out)
		return true, false
	}
	sp.MarkBackend()
	sp.SetBackend(string(node), resp.SpanID)
	if !cacheableResponse(resp, d.cache.MaxEntryBytes()) {
		f.Finish(nil, nil)
		return true, d.streamResponse(client, key, req, node, pc, resp, start, routeCost, sp)
	}
	e, berr := d.bufferEntry(pc, resp)
	if berr != nil {
		f.Finish(nil, berr)
		sp.SetStatus(502)
		sp.SetOutcome("bad-gateway")
		out := httpx.NewResponse(req.Proto, 502, []byte("backend error\n"))
		d.logAccess(key, req, 502, len(out.Body))
		_ = httpx.WriteResponse(client, out)
		return true, false
	}
	f.Finish(e, nil)
	return true, d.writeCached(client, key, req, e, "MISS", start, sp)
}

// serveStaleEntry handles an expired entry: revalidate it against a back
// end with a conditional GET (coalesced like a miss), falling back to
// stale-on-error service when no replica can answer.
func (d *Distributor) serveStaleEntry(client net.Conn, key conntrack.ClientKey, req *httpx.Request, stale *respcache.Entry, start time.Time, sp *telemetry.Span) (handled, connOK bool) {
	f, leader := d.cache.BeginFlight(req.Path)
	if !leader {
		e, err := f.Wait()
		sp.MarkCache() // waited on the flight leader
		switch {
		case e != nil && err == nil:
			return true, d.writeCached(client, key, req, e, "HIT", start, sp)
		case err != nil:
			// no replica answered the leader; the entry is still within
			// its stale window (Get classified it Stale), so degrade
			return d.serveStaleIfAllowed(client, key, req, stale, start, sp)
		default:
			return false, true // uncacheable upstream response: relay
		}
	}
	rec, err := d.table.Route(req.Path)
	if err != nil {
		// the path left the table; never resurrect the entry
		f.Finish(nil, nil)
		return false, true
	}
	node, err := d.pickReplica(rec, "")
	routeCost := time.Since(start)
	sp.MarkRoute()
	if err != nil {
		f.Finish(nil, err)
		return d.serveStaleIfAllowed(client, key, req, stale, start, sp)
	}
	// conditional GET carrying the stored validator; a 304 means the body
	// never moves again
	rr := httpx.AcquireRequest()
	rr.Method = "GET"
	rr.Target = req.Target
	rr.Path = req.Path
	rr.Proto = httpx.Proto11
	rr.TraceID = req.TraceID
	rr.Header.Set("If-None-Match", stale.Stored.ETag)
	counter := d.active[node]
	counter.Add(1)
	pc, resp, err := d.exchangeStart(node, rr)
	counter.Add(-1)
	if err != nil {
		if alt, altErr := d.pickReplica(rec, node); altErr == nil {
			altCounter := d.active[alt]
			altCounter.Add(1)
			pc, resp, err = d.exchangeStart(alt, rr)
			altCounter.Add(-1)
			node = alt
		}
	}
	httpx.ReleaseRequest(rr)
	sp.MarkBackend()
	if err != nil {
		f.Finish(nil, err)
		return d.serveStaleIfAllowed(client, key, req, stale, start, sp)
	}
	sp.SetBackend(string(node), resp.SpanID)
	if resp.StatusCode == 304 {
		if serr := d.settleConn(pc, resp); serr != nil {
			f.Finish(nil, serr)
			return d.serveStaleIfAllowed(client, key, req, stale, start, sp)
		}
		// skip the refresh if an invalidation raced the exchange: the
		// waiting requesters still get the body they asked for before the
		// mutation, but the entry must not outlive the purge
		if !f.Doomed() {
			d.cache.Refresh(stale)
		}
		f.Finish(stale, nil)
		return true, d.writeCached(client, key, req, stale, "REVALIDATED", start, sp)
	}
	if !cacheableResponse(resp, d.cache.MaxEntryBytes()) {
		f.Finish(nil, nil)
		return true, d.streamResponse(client, key, req, node, pc, resp, start, routeCost, sp)
	}
	e, berr := d.bufferEntry(pc, resp)
	if berr != nil {
		f.Finish(nil, berr)
		return d.serveStaleIfAllowed(client, key, req, stale, start, sp)
	}
	f.Finish(e, nil)
	return true, d.writeCached(client, key, req, e, "MISS", start, sp)
}

// cacheableResponse reports whether a backend response may be stored: a
// complete 200 whose declared body fits the per-entry cap.
func cacheableResponse(resp *httpx.Response, maxBytes int64) bool {
	return resp.StatusCode == 200 && resp.ContentLength >= 0 && resp.ContentLength <= maxBytes
}

// bufferEntry drains the response body from the pooled connection into a
// new cache entry, settling the connection back into the pool.
func (d *Distributor) bufferEntry(pc *conntrack.PooledConn, resp *httpx.Response) (*respcache.Entry, error) {
	body := make([]byte, resp.ContentLength)
	if _, err := io.ReadFull(pc.Reader, body); err != nil {
		d.pool.Discard(pc)
		return nil, fmt.Errorf("buffering cacheable body: %w", err)
	}
	if err := d.settleConn(pc, resp); err != nil {
		return nil, err
	}
	st := httpx.Stored{
		StatusCode:   resp.StatusCode,
		ContentType:  resp.Header.Get("Content-Type"),
		ETag:         resp.Header.Get("Etag"),
		LastModified: resp.Header.Get("Last-Modified"),
		Date:         resp.Header.Get("Date"),
		Body:         body,
	}
	// back ends that predate validators still get strong ones here, so
	// client conditionals and later revalidation work for every entry
	if st.ETag == "" {
		st.ETag = httpx.StrongETag(body)
	}
	if st.Date == "" {
		st.Date = httpx.CurrentDate()
	}
	return respcache.NewEntry(st, d.cache.Now(), d.cache.FreshFor()), nil
}

// settleConn clears the exchange deadline and returns the pooled
// connection for reuse (or discards it when the back end asked to close).
func (d *Distributor) settleConn(pc *conntrack.PooledConn, resp *httpx.Response) error {
	if d.exchangeTimeout > 0 {
		if err := pc.Conn.SetDeadline(time.Time{}); err != nil {
			d.pool.Discard(pc)
			return fmt.Errorf("clearing deadline: %w", err)
		}
	}
	if resp.KeepAlive() {
		d.pool.Release(pc)
	} else {
		d.pool.Discard(pc)
	}
	return nil
}

// streamResponse relays resp's body from the pooled back-end connection
// to the client and records the exchange, exactly as the non-cached relay
// path does (it is that path's tail, shared with the cache's uncacheable
// fallbacks). Returns whether the client connection remains usable.
func (d *Distributor) streamResponse(client net.Conn, key conntrack.ClientKey, req *httpx.Request, node config.NodeID, pc *conntrack.PooledConn, resp *httpx.Response, start time.Time, routeCost time.Duration, sp *telemetry.Span) bool {
	relayed, relayErr := httpx.RelayResponse(client, resp, pc.Reader, req.Proto, !req.KeepAlive())
	if relayErr != nil {
		// The header already reached the client, so the exchange cannot
		// be retried; the back-end connection has lost framing either
		// way. Reset the mapping (caller) and drop both connections.
		d.pool.Discard(pc)
		if errors.Is(relayErr, httpx.ErrBodyTruncated) {
			d.truncations.Add(1)
		}
		sp.MarkReply()
		sp.SetStatus(resp.StatusCode)
		sp.SetBytes(relayed)
		sp.SetOutcome("relay-error")
		d.logAccess(key, req, resp.StatusCode, int(relayed))
		return false
	}
	if d.exchangeTimeout > 0 {
		if err := pc.Conn.SetDeadline(time.Time{}); err != nil {
			d.pool.Discard(pc)
			return false
		}
	}
	if resp.KeepAlive() {
		d.pool.Release(pc)
	} else {
		d.pool.Discard(pc)
	}
	procTime := time.Since(start)
	d.routed.Add(1)
	d.relayNs.Add(int64(routeCost))
	d.logAccess(key, req, resp.StatusCode, int(relayed))
	class := content.Classify(req.Path)
	d.tracker.Record(node, class, procTime)
	sp.MarkReply()
	sp.SetClass(class.String())
	sp.SetStatus(resp.StatusCode)
	sp.SetBytes(relayed)
	sp.SetOutcome("relayed")
	cs := d.stats.Class(class.String())
	cs.Requests.Inc()
	cs.Bytes.Add(relayed)
	cs.Latency.Observe(procTime)
	if resp.StatusCode >= 400 {
		cs.Errors.Inc()
	}
	return true
}
