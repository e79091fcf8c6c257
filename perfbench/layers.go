package main

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"webcluster/internal/admission"
	"webcluster/internal/config"
	"webcluster/internal/core"
	"webcluster/internal/respcache"
	"webcluster/internal/telemetry"
	"webcluster/internal/urltable"
)

// counters is a snapshot of the counters the program exports, taken
// around the traced phase.
type counters struct {
	cache       respcache.Stats
	table       urltable.Stats
	installed   int64
	pageHits    int64
	pageMisses  int64
	service     telemetry.HistSnapshot // back-end service time, all nodes and classes
	nodeReqs    map[config.NodeID]int64
	truncations int64
	noRoute     int64
	offered     int64
	admitted    int64
	queue       telemetry.HistSnapshot // admission queue delay, all classes
	dropped     uint64
	fetches     int64
}

func snapshot(c *core.Cluster, pr *probes) counters {
	k := counters{nodeReqs: map[config.NodeID]int64{}}
	if c.Cache != nil {
		k.cache = c.Cache.Stats()
	}
	k.table = c.Table.Stats()
	k.installed, _, _ = c.Distributor.Mapping().Counts()
	for id, nh := range c.Nodes {
		pc := nh.Server.PageCacheStats()
		k.pageHits += pc.Hits
		k.pageMisses += pc.Misses
		for _, cs := range nh.Server.Stats().Snapshot().Classes {
			k.service.Merge(cs.Latency)
			k.nodeReqs[id] += cs.Requests
		}
	}
	k.truncations = c.Distributor.RelayTruncations()
	k.noRoute = c.Distributor.NoRoute()
	if adm := c.Distributor.Admission(); adm != nil {
		for cl := admission.Class(0); cl < admission.NumClasses; cl++ {
			offered, admitted, _, _ := adm.ClassCounters(cl)
			k.offered += offered
			k.admitted += admitted
			k.queue.Merge(adm.QueueDelay(cl).Snapshot())
		}
	}
	k.dropped = c.Journal.Dropped()
	k.fetches = pr.fetches.Load()
	return k
}

// histDelta is the histogram of the observations made between a and b.
func histDelta(a, b telemetry.HistSnapshot) telemetry.HistSnapshot {
	prev := map[int]int64{}
	for _, bk := range a.Buckets {
		prev[bk.Index] = bk.Count
	}
	d := telemetry.HistSnapshot{Count: b.Count - a.Count, SumNs: b.SumNs - a.SumNs}
	for _, bk := range b.Buckets {
		if n := bk.Count - prev[bk.Index]; n > 0 {
			d.Buckets = append(d.Buckets, telemetry.Bucket{Index: bk.Index, Count: n})
		}
	}
	return d
}

// joined is one traced read with the distributor span that carried its
// trace ID and, when it is still in the back end's ring, the back-end
// service span the distributor span names.
type joined struct {
	rec  readRecord
	dist *telemetry.Span
	node *telemetry.Span
}

type joinResult struct {
	rows       []joined
	distJoined int
	nodeJoined int
}

// joinSpans matches client reads to spans on the in-band trace ID. The
// distributor ring is sized to hold the traced phase; back-end rings keep
// their last 256 spans, so only that tail joins end to end.
func joinSpans(c *core.Cluster, recs []readRecord) *joinResult {
	j := &joinResult{rows: make([]joined, len(recs))}
	byTrace := make(map[uint64]int, len(recs))
	for i, r := range recs {
		j.rows[i].rec = r
		byTrace[r.trace] = i
	}
	dist := c.Telemetry.Spans(0)
	for i := range dist {
		if k, ok := byTrace[dist[i].TraceID]; ok {
			j.rows[k].dist = &dist[i]
			j.distJoined++
		}
	}
	for _, nh := range c.Nodes {
		spans := nh.Server.Telemetry().Spans(0)
		for i := range spans {
			k, ok := byTrace[spans[i].TraceID]
			if !ok || j.rows[k].dist == nil || j.rows[k].dist.BackendSpan != spans[i].SpanID {
				continue
			}
			j.rows[k].node = &spans[i]
			j.nodeJoined++
		}
	}
	return j
}

// phases is the sum of a distributor span's phase times.
func phases(sp *telemetry.Span) int64 {
	return sp.ParseNs + sp.RouteNs + sp.CacheNs + sp.BackendNs + sp.ReplyNs
}

// unattributed is the part of a span no phase covers: its self time.
func unattributed(sp *telemetry.Span) int64 {
	return sp.TotalNs - phases(sp)
}

// spanSeries collects one per-span value over the joined rows that pass
// keep, in nanoseconds.
func spanSeries(j *joinResult, keep func(joined) bool, value func(joined) int64) []int64 {
	var out []int64
	for _, r := range j.rows {
		if keep(r) {
			out = append(out, value(r))
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

func hasDist(r joined) bool { return r.dist != nil }

// quant returns the q-quantile of sorted ns samples in the given unit (ns
// per unit), NaN when empty.
func quant(sorted []int64, q, perUnit float64) float64 {
	return percentile(sorted, 0, q) / perUnit
}

// layerMetrics fills res with the per-layer figures of the traced phase,
// the read tails of the untraced baseline phase (base), and the
// management figures of every call the writer made.
func layerMetrics(res *result, s *session, base, reads *readStats, before, after counters, j *joinResult, pr *probes, live int, overhead float64) {
	n := float64(reads.attempts)
	perK := func(d int64) float64 { return ratio(float64(d)*1000, n) }
	const us, ms = 1e3, 1e6

	// loadgen: the benchmark's own client and writer
	okRec := func(r joined) bool { return r.rec.ok }
	res.set("loadgen.connect_us_p50", "us", quant(sortedCopy(s.connects), 0.5, us))
	ttfb := spanSeries(j, okRec, func(r joined) int64 { return r.rec.ttfb })
	res.set("loadgen.ttfb_us_p50", "us", quant(ttfb, 0.5, us))
	res.set("loadgen.ttfb_us_p99", "us", quant(ttfb, 0.99, us))
	res.set("loadgen.body_us_p50", "us", quant(spanSeries(j, okRec, func(r joined) int64 { return r.rec.body }), 0.5, us))
	res.set("loadgen.writer_late_ms_p99", "ms", quant(sortedCopy(s.writer.late), 0.99, ms))
	lat := sortedCopy(base.lat)
	res.set("loadgen.read_p99_us", "us", percentile(lat, base.failed, 0.99)/us)
	res.set("loadgen.read_p999_us", "us", percentile(lat, base.failed, 0.999)/us)

	// distributor span phases
	res.set("httpx.parse_us_p50", "us", quant(spanSeries(j, hasDist, func(r joined) int64 { return r.dist.ParseNs }), 0.5, us))
	routed := func(r joined) bool { return r.dist != nil && r.dist.RouteNs > 0 }
	res.set("urltable.route_us_p50", "us", quant(spanSeries(j, routed, func(r joined) int64 { return r.dist.RouteNs }), 0.5, us))
	lookups := after.table.Lookups - before.table.Lookups
	res.set("urltable.lookups_per_req", "1/req", ratio(float64(lookups), n))
	res.set("urltable.entry_hit_frac", "ratio", ratio(float64(after.table.CacheHits-before.table.CacheHits), float64(lookups)))
	res.set("urltable.mem_kb", "KB", float64(after.table.MemBytes)/1e3)

	res.set("loadbal.pick_ns_p50", "ns", pr.pick.quantile(0.5))
	var shares []float64
	for _, id := range s.c.Spec.NodeIDs() {
		shares = append(shares, float64(after.nodeReqs[id]-before.nodeReqs[id]))
	}
	res.set("loadbal.node_share_cv", "ratio", cv(shares))
	kind := func(k int) func(call) bool { return func(c call) bool { return c.kind == k } }
	plans, planFailed := s.writer.pool(kind(opPlan))
	res.set("loadbal.plan_ms_p50", "ms", quant(plans, 0.5, ms))
	res.set("loadbal.plan_actions", "1/round", ratio(float64(s.writer.actions), float64(len(plans))+float64(planFailed)))

	cached := func(r joined) bool { return r.dist != nil && r.dist.CacheNs > 0 }
	res.set("respcache.lookup_us_p50", "us", quant(spanSeries(j, cached, func(r joined) int64 { return r.dist.CacheNs }), 0.5, us))
	ca, cb := after.cache, before.cache
	res.set("respcache.hit_frac", "ratio", ratio(float64(ca.Hits-cb.Hits), n))
	res.set("respcache.reject_frac", "ratio", ratio(float64(ca.Rejected-cb.Rejected), float64(ca.Rejected-cb.Rejected+ca.Fills-cb.Fills)))
	res.set("respcache.evictions_per_kreq", "1/kreq", perK(ca.Evictions-cb.Evictions))
	res.set("respcache.invalidations_per_kreq", "1/kreq", perK(ca.Invalidations-cb.Invalidations))
	res.set("respcache.coalesced_per_kreq", "1/kreq", perK(ca.Coalesced-cb.Coalesced))
	res.set("respcache.bytes_mb", "MB", float64(ca.Bytes)/1e6)

	res.set("conntrack.installs_per_req", "1/req", ratio(float64(after.installed-before.installed), n))
	res.set("conntrack.live_end", "count", float64(live))
	exchanged := func(r joined) bool { return r.node != nil && r.dist.BackendNs > 0 }
	res.set("conntrack.exchange_us_p50", "us", quant(spanSeries(j, exchanged, func(r joined) int64 {
		return r.dist.BackendNs - r.node.BackendNs
	}), 0.5, us))

	svc := histDelta(before.service, after.service)
	res.set("backend.service_us_p50", "us", float64(svc.Quantile(0.5))/us)
	res.set("backend.service_us_p99", "us", float64(svc.Quantile(0.99))/us)
	res.set("backend.pagecache_hit_frac", "ratio", ratio(float64(after.pageHits-before.pageHits),
		float64(after.pageHits-before.pageHits+after.pageMisses-before.pageMisses)))
	res.set("backend.store_fetch_us_p50", "us", pr.fetch.quantile(0.5)/us)
	res.set("backend.store_fetches_per_req", "1/req", ratio(float64(after.fetches-before.fetches), n))

	relayed := func(r joined) bool { return r.dist != nil && r.dist.BackendNs > 0 }
	replied := func(r joined) bool { return r.dist != nil && r.dist.ReplyNs > 0 }
	backendNs := spanSeries(j, relayed, func(r joined) int64 { return r.dist.BackendNs })
	replyNs := spanSeries(j, replied, func(r joined) int64 { return r.dist.ReplyNs })
	totalNs := spanSeries(j, hasDist, func(r joined) int64 { return r.dist.TotalNs })
	selfNs := spanSeries(j, hasDist, func(r joined) int64 { return unattributed(r.dist) })
	res.set("distributor.backend_us_p50", "us", quant(backendNs, 0.5, us))
	res.set("distributor.backend_us_p99", "us", quant(backendNs, 0.99, us))
	res.set("distributor.reply_us_p50", "us", quant(replyNs, 0.5, us))
	res.set("distributor.reply_us_p99", "us", quant(replyNs, 0.99, us))
	res.set("distributor.total_us_p50", "us", quant(totalNs, 0.5, us))
	res.set("distributor.total_us_p99", "us", quant(totalNs, 0.99, us))
	res.set("distributor.unattributed_us_p99", "us", quant(selfNs, 0.99, us))
	res.set("distributor.unattributed_us_p999", "us", quant(selfNs, 0.999, us))
	res.set("distributor.truncations", "count", float64(after.truncations-before.truncations))
	res.set("distributor.no_route", "count", float64(after.noRoute-before.noRoute))

	// With admission off every read is admitted.
	admit := 1.0
	if s.c.Distributor.Admission() != nil {
		admit = ratio(float64(after.admitted-before.admitted), float64(after.offered-before.offered))
	}
	res.set("admission.admit_frac", "ratio", admit)
	res.set("admission.queue_wait_us_p99", "us", float64(histDelta(before.queue, after.queue).Quantile(0.99))/us)

	res.set("mgmt.insert_ms_p50", "ms", quant(sortedCopy(s.inserts), 0.5, ms))
	for k, name := range []string{opUpdate: "mgmt.update_ms_p50", opReplicate: "mgmt.replicate_ms_p50", opOffload: "mgmt.offload_ms_p50"} {
		d, failed := s.writer.pool(kind(k))
		res.set(name, "ms", percentile(d, failed, 0.5)/ms)
	}
	res.set("mgmt.installs_sent", "count", float64(s.c.Controller.InstallsSent()))
	mut, mutFailed := s.writer.pool(func(call) bool { return true })
	res.set("mgmt.mutate_p50_ms", "ms", percentile(mut, mutFailed, 0.5)/ms)
	res.set("mgmt.mutate_p99_ms", "ms", percentile(mut, mutFailed, 0.99)/ms)

	res.set("journal.dropped", "count", float64(after.dropped-before.dropped))
	res.set("telemetry.overhead_frac", "ratio", overhead)
	res.set("telemetry.span_drops", "count", float64(len(j.rows)-j.distJoined))
}

// spanRow is one joined read as written out: the client's view, the
// distributor span's phases with its self time, and the back-end service
// span when it joined.
type spanRow struct {
	Trace          string          `json:"trace"`
	Path           string          `json:"path"`
	OK             bool            `json:"ok"`
	StartUnixNano  int64           `json:"startUnixNano"`
	ConnectNs      int64           `json:"connectNs,omitempty"`
	TTFBNs         int64           `json:"ttfbNs"`
	BodyNs         int64           `json:"bodyNs"`
	Dist           *telemetry.Span `json:"dist,omitempty"`
	UnattributedNs int64           `json:"unattributedNs,omitempty"`
	Node           *telemetry.Span `json:"node,omitempty"`
}

// writeSpans writes the host block and every joined read, one JSON object
// per line, gzip-compressed.
func writeSpans(path string, host hostInfo, s *session, j *joinResult) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	enc := json.NewEncoder(zw)
	werr := enc.Encode(map[string]any{"host": host, "joined": j.distJoined, "nodeJoined": j.nodeJoined, "reads": len(j.rows)})
	for _, r := range j.rows {
		if werr != nil {
			break
		}
		row := spanRow{
			Trace:         fmt.Sprintf("%016x", r.rec.trace),
			Path:          s.objs[r.rec.obj].path,
			OK:            r.rec.ok,
			StartUnixNano: r.rec.startNs,
			ConnectNs:     r.rec.connect,
			TTFBNs:        r.rec.ttfb,
			BodyNs:        r.rec.body,
			Dist:          r.dist,
			Node:          r.node,
		}
		if r.dist != nil {
			row.UnattributedNs = unattributed(r.dist)
		}
		werr = enc.Encode(row)
	}
	if err := zw.Close(); err != nil && werr == nil {
		werr = err
	}
	if err := f.Close(); err != nil && werr == nil {
		werr = err
	}
	return werr
}
