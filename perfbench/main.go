// Command perfbench is the cluster's end-to-end benchmark. For one
// workload it launches an in-process cluster through core.Launch (three
// back ends with brokers, the distributor and the controller), places the
// workload's site through the controller, drives it with closed-loop
// clients over loopback TCP, checks every response, and prints the
// verdict as the last line of standard output:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{...}}
//
// With --trace 0 the metrics are the end-to-end figures; with --trace 1
// they are the per-layer breakdown of a traced run. Run it through
// run.py from the repository root, which builds it first:
//
//	python3 perfbench/run.py --workload relay-a --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"webcluster/internal/content"
)

// setups is how many times an end-to-end run sets the cluster up;
// setup_s is their median.
const setups = 2

func main() {
	name := flag.String("workload", "", "workload: relay-a, cached-b or churn-a")
	seed := flag.Int64("seed", 1, "seed of the request streams and the management writer")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run")
	flag.Parse()

	spec, err := lookupWorkload(*name)
	if err != nil {
		fatal(err)
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fatal(fmt.Errorf("bad arguments"))
	}
	site, objs, err := buildSite(spec.kind, content.DefaultGenParams().Objects)
	if err != nil {
		fatal(err)
	}
	rc := runConfig{
		spec:    spec,
		seed:    *seed,
		measure: time.Duration(*seconds) * time.Second,
		site:    site,
		objs:    objs,
		setups:  setups,
		warmup:  time.Second,
		host:    newHostInfo(),
	}
	h := &rc.host
	h.Workload, h.Seed, h.Trace, h.Seconds, h.Readers = spec.name, *seed, *trace == 1, *seconds, spec.readers()
	h.Objects, h.SiteBytes = site.Len(), site.TotalBytes()
	if spec.cache {
		h.CacheBytes = cacheableBytes(objs) / 3
	}

	var res *result
	if *trace == 1 {
		rc.setups = 1
		rc.spansOut = filepath.Join(".bench_build", "perfbench", spec.name+"-spans.jsonl.gz")
		res, err = runTraced(rc)
	} else {
		res, err = runEndToEnd(rc)
	}
	if err != nil {
		fatal(err)
	}
	hostLine, err := json.Marshal(map[string]any{"host": rc.host})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(hostLine))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed (%d wrong bodies); last: %s\n",
			res.Failed, res.Attempted, res.wrong, res.detail)
	}
	for name, m := range res.Metrics {
		m.Value = finite(m.Value)
		res.Metrics[name] = m
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// finite makes a value JSON can carry: a tail made of failures (+Inf)
// becomes the largest float, and an empty series (NaN) becomes 0.
func finite(v float64) float64 {
	switch {
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsNaN(v):
		return 0
	}
	return v
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
