package loadbal_test

import (
	"fmt"
	"time"

	"webcluster/internal/config"
	"webcluster/internal/content"
	"webcluster/internal/loadbal"
	"webcluster/internal/urltable"
)

// Example walks the full §3.3 loop: the distributor records per-request
// loads, the interval closes into L_j values, nodes are classified against
// the cluster average, and the planner emits placement actions.
func Example() {
	specs := []config.NodeSpec{
		{ID: "hot", CPUMHz: 350, MemoryMB: 128},
		{ID: "idle", CPUMHz: 350, MemoryMB: 128},
	}
	table := urltable.New()
	obj := content.Object{Path: "/popular.html", Size: 4096, Class: content.ClassHTML}
	_ = table.Insert(obj, "hot")

	tracker := loadbal.NewTracker(loadbal.PaperWeights())
	for i := 0; i < 100; i++ {
		// Every request lands on "hot" (it has the only copy) and is
		// counted in the URL table and the tracker.
		_, _ = table.Route("/popular.html")
		tracker.Record("hot", content.ClassHTML, 10*time.Millisecond)
	}

	loads := tracker.IntervalLoads(specs)
	fmt.Printf("L(hot)=%.1f L(idle)=%.1f\n", loads["hot"], loads["idle"])

	levels := loadbal.Classify(loads, 0.25)
	fmt.Printf("hot=%s idle=%s\n", levels["hot"], levels["idle"])

	actions := loadbal.Plan(loads, table, loadbal.PlannerOptions{
		Threshold:         0.25,
		MaxActionsPerNode: 1,
		MinHits:           10,
	})
	for _, a := range actions {
		fmt.Println(a)
	}

	// Output:
	// L(hot)=10.0 L(idle)=0.0
	// hot=overloaded idle=underutilized
	// replicate /popular.html hot→idle
}
