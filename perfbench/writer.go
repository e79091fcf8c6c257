package main

import (
	"fmt"
	"math/rand"
	"time"

	"webcluster/internal/config"
	"webcluster/internal/content"
	"webcluster/internal/core"
)

// churnCadence is the writer's cycle period beside the readers on churn
// workloads: 50 cycles, 200 timed calls, a second.
const churnCadence = 20 * time.Millisecond

// idleCycles is the length of the idle probe, the same cycle run back to
// back on the quiet cluster after the traced run's reads on the other
// workloads: 2000 timed calls, twenty beyond the 99th percentile. Back to
// back because on a VM a paced writer on an idle cluster mostly times how
// long an idle vCPU takes to wake (the 99th percentile triples).
const idleCycles = 500

// writer is the management client. Each cycle updates one html or image
// object with a new version, replicates it to a node that lacks it,
// offloads that same copy again (so placement stays stationary), and runs
// one auto-balancer round.
type writer struct {
	c       *core.Cluster
	targets []*object
	rng     *rand.Rand
	cadence time.Duration

	calls             []call
	late              []int64 // cycle start after its due time, ns
	attempted, failed int64
	actions           int64
	lastErr           string
}

// The kinds of management call.
const (
	opUpdate = iota
	opReplicate
	opOffload
	opPlan
)

// call is one management call: its kind, how long it took, and whether
// it failed.
type call struct {
	kind   int
	dur    int64 // ns
	failed bool
}

func newWriter(c *core.Cluster, objs []*object, seed int64, cadence time.Duration) *writer {
	w := &writer{c: c, rng: rand.New(rand.NewSource(streamSeed(seed, -1))), cadence: cadence}
	for _, o := range objs {
		if o.class == content.ClassHTML || o.class == content.ClassImage {
			w.targets = append(w.targets, o)
		}
	}
	return w
}

// run repeats the cycle until the deadline passes or maxCycles (when
// positive) have run. With a cadence, cycles follow a fixed schedule: a
// late cycle starts at once and the schedule does not shift, so lateness
// shows instead of accumulating. Without one they run back to back.
func (w *writer) run(until time.Time, maxCycles int) {
	start := time.Now()
	for k := 0; maxCycles <= 0 || k < maxCycles; k++ {
		due := start.Add(time.Duration(k) * w.cadence)
		if !due.Before(until) {
			return
		}
		if w.cadence > 0 {
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			w.late = append(w.late, int64(time.Since(due)))
		}
		w.cycle()
	}
}

func (w *writer) cycle() {
	o := w.targets[w.rng.Intn(len(w.targets))]
	v := o.ver.started.Load() + 1
	o.ver.started.Store(v)
	data := versionBody(o.path, o.size, v)
	if w.call(opUpdate, func() error { return w.c.Controller.Update(o.path, data) }) {
		o.ver.committed.Store(v)
	}

	rec, err := w.c.Table.Lookup(o.path)
	if err != nil {
		w.attempted++
		w.fail(fmt.Errorf("lookup %s: %w", o.path, err))
		return
	}
	var lacking []config.NodeID
	for _, id := range w.c.Spec.NodeIDs() {
		if !rec.HasLocation(id) {
			lacking = append(lacking, id)
		}
	}
	if len(lacking) > 0 {
		target := lacking[w.rng.Intn(len(lacking))]
		if w.call(opReplicate, func() error { return w.c.Controller.Replicate(o.path, rec.Locations[0], target) }) {
			w.call(opOffload, func() error { return w.c.Controller.Offload(o.path, target) })
		}
	}

	w.call(opPlan, func() error {
		w.actions += int64(len(w.c.Balancer.RunOnce()))
		return nil
	})
}

// call times fn as a call of the given kind and reports whether it
// succeeded.
func (w *writer) call(kind int, fn func() error) bool {
	w.attempted++
	start := time.Now()
	err := fn()
	w.calls = append(w.calls, call{kind: kind, dur: int64(time.Since(start)), failed: err != nil})
	if err != nil {
		w.fail(err)
		return false
	}
	return true
}

func (w *writer) fail(err error) {
	w.failed++
	w.lastErr = err.Error()
}

// pool returns the sorted wall times of the successful calls that pass
// keep, and how many of those calls failed.
func (w *writer) pool(keep func(call) bool) ([]int64, int64) {
	var durs []int64
	var failed int64
	for _, c := range w.calls {
		if !keep(c) {
			continue
		}
		if c.failed {
			failed++
		} else {
			durs = append(durs, c.dur)
		}
	}
	return sortedCopy(durs), failed
}
