package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"webcluster/internal/admission"
	"webcluster/internal/backend"
	"webcluster/internal/config"
	"webcluster/internal/content"
	"webcluster/internal/core"
	"webcluster/internal/faults"
	"webcluster/internal/loadbal"
	"webcluster/internal/telemetry"
)

// probes are the benchmark's timers around the hooks core.Options
// accepts. They time only while on is set, so the untraced phase of a
// traced run pays one atomic load per call.
type probes struct {
	on      atomic.Bool
	pick    hist
	fetch   hist
	fetches atomic.Int64
}

// timedPicker times each replica choice of the distributor's default
// policy; the figure includes the two clock reads around it.
type timedPicker struct {
	inner loadbal.Picker
	p     *probes
}

func (t timedPicker) Pick(c []loadbal.NodeState) (config.NodeID, error) {
	if !t.p.on.Load() {
		return t.inner.Pick(c)
	}
	start := time.Now()
	id, err := t.inner.Pick(c)
	t.p.pick.observe(int64(time.Since(start)))
	return id, err
}

func (t timedPicker) Name() string { return t.inner.Name() }

// timedStore times each Fetch of a back end's default in-memory store:
// the "disk" read behind a page-cache miss (and the controller's copy
// source for Replicate).
type timedStore struct {
	*backend.MemStore
	p *probes
}

func (t timedStore) Fetch(path string) ([]byte, error) {
	if !t.p.on.Load() {
		return t.MemStore.Fetch(path)
	}
	start := time.Now()
	b, err := t.MemStore.Fetch(path)
	t.p.fetch.observe(int64(time.Since(start)))
	t.p.fetches.Add(1)
	return b, err
}

// clusterConfig is what a run launches.
type clusterConfig struct {
	spec       workloadSpec
	cacheBytes int64
	// probes, when set, wires the timed Picker and StoreFor hooks in.
	probes *probes
	// ringSize sizes the distributor's span ring (0: the default).
	ringSize int
	// faults, when set, is threaded through every network layer (the
	// oracle self-test corrupts back-end connections with it).
	faults *faults.Injector
}

func (cc clusterConfig) options() core.Options {
	opts := core.Options{
		Faults:           cc.faults,
		TelemetryOptions: telemetry.Options{RingSize: cc.ringSize},
	}
	if cc.spec.cache {
		opts.CacheBytes = cc.cacheBytes
	}
	if cc.spec.admission {
		opts.Admission = &admission.Options{}
	}
	if p := cc.probes; p != nil {
		opts.Picker = timedPicker{inner: loadbal.WeightedLeastConn{}, p: p}
		opts.StoreFor = func(config.NodeSpec) backend.Store {
			return timedStore{MemStore: &backend.MemStore{}, p: p}
		}
	}
	return opts
}

// setup launches a cluster and places the whole site through the
// controller, one Insert per object with the paper's by-type policy, as
// core.Cluster.PlaceSite does; it also records each object's placement
// and the wall time of every Insert. It returns once every object is
// routable.
func setup(cc clusterConfig, site *content.Site, objs []*object, inserts *[]int64) (*core.Cluster, time.Duration, error) {
	start := time.Now()
	c, err := core.Launch(cc.options())
	if err != nil {
		return nil, 0, err
	}
	place := core.PlaceByType()
	for i, obj := range site.Objects() {
		nodes := place(obj, c.Spec)
		var data []byte
		if obj.Class.Dynamic() {
			data = []byte("#!script " + obj.Path + "\n")
		} else {
			data = backend.SynthesizeBody(obj.Path, obj.Size)
		}
		t := time.Now()
		err := c.Controller.Insert(obj, data, nodes...)
		*inserts = append(*inserts, int64(time.Since(t)))
		if err != nil {
			_ = c.Close()
			return nil, 0, fmt.Errorf("placing %s: %w", obj.Path, err)
		}
		objs[i].nodes = nodes
	}
	if n := c.Table.Len(); n != len(objs) {
		_ = c.Close()
		return nil, 0, fmt.Errorf("URL table routes %d of %d objects", n, len(objs))
	}
	return c, time.Since(start), nil
}

// setupMedian sets the cluster up n times and keeps the last one; set-up
// time is the median of the n, since one launch-and-place varies by
// several percent. Earlier clusters are closed and collected first so
// each set-up starts from the same heap.
func setupMedian(n int, cc clusterConfig, site *content.Site, objs []*object, inserts *[]int64) (*core.Cluster, []float64, error) {
	var times []float64
	for i := 0; ; i++ {
		runtime.GC()
		c, d, err := setup(cc, site, objs, inserts)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, d.Seconds())
		if i == n-1 {
			return c, times, nil
		}
		if err := c.Close(); err != nil {
			return nil, nil, fmt.Errorf("closing set-up cluster: %w", err)
		}
	}
}
