package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"webcluster/internal/content"
	"webcluster/internal/core"
	"webcluster/internal/faults"
)

// runConfig is one invocation of the benchmark.
type runConfig struct {
	spec    workloadSpec
	seed    int64
	measure time.Duration
	site    *content.Site
	objs    []*object // the site as the clients and the oracle see it
	setups  int
	warmup  time.Duration
	// faults, when set, is threaded through the cluster (self-tests).
	faults *faults.Injector
	// spansOut, when set, receives the traced run's joined spans.
	spansOut string
	host     hostInfo
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's verdict line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// wrong counts wrong bodies among the failures; detail is the last
	// failure seen. Neither is printed in the verdict line.
	wrong  int64
	detail string
}

func (r *result) set(name, unit string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// account folds reads and management calls into the verdict: the run is
// correct only when every operation succeeded and every body checked out.
func (r *result) account(reads *readStats, w *writer) {
	r.Attempted = reads.attempts
	r.Failed = reads.failed
	r.wrong = reads.wrong
	r.detail = reads.lastErr
	if w != nil {
		r.Attempted += w.attempted
		r.Failed += w.failed
		if w.lastErr != "" && r.detail == "" {
			r.detail = "management: " + w.lastErr
		}
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
}

// session is a launched cluster with its clients.
type session struct {
	rc      runConfig
	objs    []*object
	c       *core.Cluster
	readers []*reader
	writer  *writer
	// connects collects every dial, warm-up included: keep-alive
	// readers dial only there.
	connects []int64
	inserts  []int64
	setupS   []float64
}

func newSession(rc runConfig, cc clusterConfig) (*session, error) {
	objs := rc.objs
	cc.spec = rc.spec
	cc.cacheBytes = cacheableBytes(objs) / 3
	cc.faults = rc.faults
	s := &session{rc: rc, objs: objs}
	var err error
	s.c, s.setupS, err = setupMedian(rc.setups, cc, rc.site, objs, &s.inserts)
	if err != nil {
		return nil, err
	}
	cdf := zipfCDF(len(objs), zipfS)
	for i := 0; i < rc.spec.readers(); i++ {
		s.readers = append(s.readers, newReader(s.c.FrontAddr, objs, cdf, rc.spec.http10, rc.seed, i))
	}
	var cadence time.Duration
	if rc.spec.churn {
		cadence = churnCadence
	}
	s.writer = newWriter(s.c, objs, rc.seed, cadence)
	return s, nil
}

// phase runs every reader, and on churn workloads the writer, for d. It
// returns the merged read results, the phase's wall time (which ends when
// the last in-flight read completes) and the readings at each window
// boundary.
func (s *session) phase(d time.Duration, traced bool) (*readStats, time.Duration, marks) {
	start := time.Now()
	until := start.Add(d)
	stats := make([]readStats, len(s.readers))
	var m marks
	m.take()
	var wg sync.WaitGroup
	for i, r := range s.readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.run(until, traced, &stats[i])
		}()
	}
	if s.rc.spec.churn {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.writer.run(until, 0)
		}()
	}
	for i := 1; i < windows; i++ {
		time.Sleep(time.Until(start.Add(d * time.Duration(i) / windows)))
		m.take()
	}
	wg.Wait()
	m.take()
	elapsed := time.Since(start)
	all := &readStats{}
	for i := range stats {
		all.merge(&stats[i])
	}
	s.connects = append(s.connects, all.connects...)
	return all, elapsed, m
}

// warm fills connection pools, page caches and the response cache before
// anything is measured. Its reads are checked and counted like any other.
func (s *session) warm() *readStats {
	if s.rc.warmup <= 0 {
		return &readStats{}
	}
	reads, _, _ := s.phase(s.rc.warmup, false)
	return reads
}

// idleProbe times the writer's cycle on the quiet cluster, for the
// workloads that do not run it beside their readers.
func (s *session) idleProbe() {
	if !s.rc.spec.churn {
		s.writer.run(time.Now().Add(time.Hour), idleCycles)
	}
}

// closeClients ends every client connection and waits, up to a second,
// for the distributor to tear their mapping entries down. It returns the
// entries still live.
func (s *session) closeClients() int {
	for _, r := range s.readers {
		r.close()
	}
	deadline := time.Now().Add(time.Second)
	for {
		_, _, live := s.c.Distributor.Mapping().Counts()
		if live == 0 || time.Now().After(deadline) {
			return live
		}
		time.Sleep(time.Millisecond)
	}
}

// close shuts the cluster down; a failure there does not change the
// run's figures, so it is only reported.
func (s *session) close() {
	if err := s.c.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: closing cluster:", err)
	}
}

// runEndToEnd is the untraced run: the figures a site operator and the
// site's users see.
func runEndToEnd(rc runConfig) (*result, error) {
	s, err := newSession(rc, clusterConfig{})
	if err != nil {
		return nil, err
	}
	defer s.close()
	warm := s.warm()
	reads, _, m := s.phase(rc.measure, false)
	q := poolReads(reads, m, m.quietest())
	s.closeClients()
	// Two collections: the first leaves sync.Pool victims behind.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	res := &result{Metrics: map[string]metric{}}
	warm.merge(reads)
	res.account(warm, s.writer)
	res.set("setup_s", "s", median(s.setupS))
	rate := float64(len(q.lat)) / q.dur.Seconds()
	res.set("req_per_s", "req/s", rate)
	// Bytes per read come from the whole phase, whose stratified stream
	// holds each object its expected number of times; the quiet half
	// alone would add the sampling noise of a few dozen video reads.
	res.set("mb_per_s", "MB/s", rate*ratio(float64(reads.bytes), float64(len(reads.lat)))/1e6)
	res.set("p50_us", "us", percentile(q.lat, q.failed, 0.5)/1e3)
	res.set("p90_us", "us", percentile(q.lat, q.failed, 0.9)/1e3)
	res.set("cpu_us_per_req", "us", ratio(float64(q.cpu.Microseconds()), float64(len(q.lat))))
	res.set("heap_mb", "MB", float64(ms.HeapAlloc)/1e6)
	return res, nil
}

// tracedPhase is the longest traced phase; traceRing holds all of its
// distributor spans at the highest rate the workloads reach (cached-b:
// under 50k reads/s).
const (
	tracedPhase = 5 * time.Second
	traceRing   = 1 << 18
)

// runTraced is the per-layer run: an untraced phase as the overhead
// baseline, then a traced phase of at most tracedPhase (half the run when
// shorter) with the hook timers on and a fresh X-Dist-Trace on every
// read, whose spans it joins across layers.
func runTraced(rc runConfig) (*result, error) {
	pr := &probes{}
	s, err := newSession(rc, clusterConfig{probes: pr, ringSize: traceRing})
	if err != nil {
		return nil, err
	}
	defer s.close()
	all := s.warm()
	traced := min(rc.measure/2, tracedPhase)
	base, baseElapsed, _ := s.phase(rc.measure-traced, false)
	before := snapshot(s.c, pr)
	pr.on.Store(true)
	reads, elapsed, _ := s.phase(traced, true)
	pr.on.Store(false)
	after := snapshot(s.c, pr)
	join := joinSpans(s.c, reads.records)
	live := s.closeClients()
	s.idleProbe()

	res := &result{Metrics: map[string]metric{}}
	all.merge(base)
	all.merge(reads)
	res.account(all, s.writer)
	overhead := 1 - ratio(float64(len(reads.lat))/elapsed.Seconds(), float64(len(base.lat))/baseElapsed.Seconds())
	layerMetrics(res, s, base, reads, before, after, join, pr, live, overhead)
	if rc.spansOut != "" {
		if err := writeSpans(rc.spansOut, rc.host, s, join); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return res, nil
}
