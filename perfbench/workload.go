package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"sync/atomic"

	"webcluster/internal/config"
	"webcluster/internal/content"
	"webcluster/internal/workload"
)

// workloadSpec is one traffic mix. BENCHMARK.json records why each exists
// and which layers it loads; NOTES.md has the full table.
type workloadSpec struct {
	name string
	kind workload.Kind
	// cache enables the distributor's response cache with a budget of a
	// third of the site's cacheable bytes, so admission rejections and
	// evictions both run.
	cache bool
	// admission enables SLO-class overload control at default options.
	admission bool
	// http10 makes every read open its own connection (HTTP/1.0).
	http10 bool
	// churn runs one management writer beside the readers for the whole
	// read phase instead of an idle probe after it.
	churn bool
}

var workloads = []workloadSpec{
	{name: "relay-a", kind: workload.KindA},
	{name: "cached-b", kind: workload.KindB, cache: true, admission: true},
	{name: "churn-a", kind: workload.KindA, cache: true, http10: true, churn: true},
}

func lookupWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// readers is the number of closed-loop read clients: one per CPU, less
// the management writer's share on churn workloads.
func (w workloadSpec) readers() int {
	n := runtime.NumCPU()
	if w.churn {
		n--
	}
	if n < 1 {
		n = 1
	}
	return n
}

// siteSeed fixes the generated site: the paper evaluates one live site,
// and the heavy-tailed video sizes make total site bytes swing by a
// quarter from one generator seed to the next, which would swamp every
// memory and set-up figure. --seed drives the request streams and the
// writer instead.
var siteSeed = content.DefaultGenParams().Seed

// zipfS is the popularity skew of every client stream.
const zipfS = 0.9

// object is one placed site object as the benchmark's clients and oracle
// see it.
type object struct {
	path  string
	size  int64
	class content.Class
	// nodes is the placement the site was loaded with; a dynamic body
	// must name one of them.
	nodes []config.NodeID
	// ver tracks Update versions of static objects (nil for dynamic).
	ver *version
}

// version brackets the body a read may see: every version from the last
// committed one when the read starts to the last started one when it
// ends. The single writer stores started before calling Update and
// committed after Update returns.
type version struct {
	started   atomic.Int64
	committed atomic.Int64
}

// versionPattern is the line an object's body repeats at version v.
// Version 0 is what the placement wrote (backend.SynthesizeBody).
func versionPattern(path string, v int64) []byte {
	if v == 0 {
		return []byte(path + "\n")
	}
	return []byte(path + "#v" + strconv.FormatInt(v, 10) + "\n")
}

// versionBody is an Update payload: the version's pattern repeated to the
// object's size, so a read can be checked without storing bodies.
func versionBody(path string, size, v int64) []byte {
	pat := versionPattern(path, v)
	body := make([]byte, size)
	for off := 0; off < len(body); off += len(pat) {
		copy(body[off:], pat)
	}
	return body
}

// buildSite generates the workload's site and the benchmark's view of it.
func buildSite(kind workload.Kind, objects int) (*content.Site, []*object, error) {
	site, err := workload.BuildSite(kind, objects, siteSeed)
	if err != nil {
		return nil, nil, err
	}
	objs := make([]*object, site.Len())
	for i := range objs {
		o := site.ByRank(i)
		objs[i] = &object{path: o.Path, size: o.Size, class: o.Class}
		if !o.Class.Dynamic() {
			objs[i].ver = &version{}
		}
	}
	return site, objs, nil
}

// cacheableBytes sums the static bodies the response cache may store
// (its default per-entry cap is 1 MiB).
func cacheableBytes(objs []*object) int64 {
	var n int64
	for _, o := range objs {
		if !o.class.Dynamic() && o.size <= 1<<20 {
			n += o.size
		}
	}
	return n
}

// zipfCDF is the cumulative Zipf(s) distribution over n ranks.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	var sum float64
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[n-1] = 1
	return cdf
}

// zipfBlock is the stratification block of a Zipf stream.
const zipfBlock = 1 << 16

// zipfStream draws ranks from a shared CDF with its own seeded source,
// stratified: each block of zipfBlock draws takes one uniform variate from
// each of zipfBlock equal slices of [0,1), in a seeded random order. The
// marginal distribution is exactly Zipf, but every block holds each object
// its expected number of times, give or take two, so the rare multi-MB
// video reads do not swing a run's byte count the way independent draws
// would.
type zipfStream struct {
	cdf  []float64
	rng  *rand.Rand
	perm []int
	next int
}

func newZipfStream(cdf []float64, seed int64) *zipfStream {
	return &zipfStream{cdf: cdf, rng: rand.New(rand.NewSource(seed))}
}

func (z *zipfStream) draw() int {
	if z.next == len(z.perm) {
		z.perm = z.rng.Perm(zipfBlock)
		z.next = 0
	}
	u := (float64(z.perm[z.next]) + z.rng.Float64()) / zipfBlock
	z.next++
	return sort.SearchFloat64s(z.cdf, u)
}

// streamSeed derives an independent stream seed from the run seed.
func streamSeed(seed int64, stream int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream+1)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	return int64(x)
}
