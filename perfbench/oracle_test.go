package main

import (
	"testing"
	"time"

	"webcluster/internal/faults"
)

func TestIsRepeat(t *testing.T) {
	pat := versionPattern("/docs/d01/page00001.html", 0)
	for _, size := range []int64{1, 10, int64(len(pat)), 1000} {
		body := versionBody("/docs/d01/page00001.html", size, 0)
		if !isRepeat(body, pat) {
			t.Errorf("size %d: placed body rejected", size)
		}
		if v1 := versionBody("/docs/d01/page00001.html", size, 1); size > 24 && isRepeat(v1, pat) {
			t.Errorf("size %d: version 1 body accepted as version 0", size)
		}
		if size > 1 {
			bad := append([]byte(nil), body...)
			bad[size-1] ^= 1
			if isRepeat(bad, pat) {
				t.Errorf("size %d: corrupted body accepted", size)
			}
		}
	}
}

// smallRun is a short end-to-end run on a small site.
func smallRun(t *testing.T, name string, in *faults.Injector) *result {
	t.Helper()
	spec, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	site, objs, err := buildSite(spec.kind, 400)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runEndToEnd(runConfig{
		spec:    spec,
		seed:    7,
		measure: time.Second,
		site:    site,
		objs:    objs,
		setups:  1,
		faults:  in,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestOracleAcceptsHealthyCluster(t *testing.T) {
	for _, name := range []string{"relay-a", "cached-b", "churn-a"} {
		res := smallRun(t, name, nil)
		if !res.Correct || res.Failed != 0 || res.wrong != 0 {
			t.Errorf("%s: correct=%v failed=%d wrong=%d: %s", name, res.Correct, res.Failed, res.wrong, res.detail)
		}
	}
}

func TestOracleFailsCorruptedBodies(t *testing.T) {
	in := faults.New(1)
	// Flip a bit in every 997th byte the back ends write to the
	// distributor's connections.
	in.Set("backend.conn", faults.Rule{CorruptEveryN: 997})
	res := smallRun(t, "relay-a", in)
	if res.Correct || res.wrong == 0 {
		t.Fatalf("corrupting run passed: correct=%v failed=%d wrong=%d", res.Correct, res.Failed, res.wrong)
	}
}
