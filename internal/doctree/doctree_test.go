package doctree

import (
	"errors"
	"strings"
	"testing"

	"webcluster/internal/config"
	"webcluster/internal/content"
	"webcluster/internal/urltable"
)

func newTable(t *testing.T) *urltable.Table {
	t.Helper()
	return urltable.New()
}

func obj(path string, size int64) content.Object {
	return content.Object{Path: path, Size: size, Class: content.Classify(path)}
}

func apply(t *testing.T, tbl *urltable.Table, plan Plan) {
	t.Helper()
	if plan.Apply == nil {
		t.Fatal("plan has no Apply")
	}
	if err := plan.Apply(tbl); err != nil {
		t.Fatalf("apply %q: %v", plan.Describe, err)
	}
}

func TestInsertPlan(t *testing.T) {
	tbl := newTable(t)
	plan, err := InsertPlan(obj("/a.html", 10), []byte("x"), "n1", "n2")
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 2 {
		t.Fatalf("steps = %d", len(plan.Steps))
	}
	for _, s := range plan.Steps {
		if s.Kind != StepStore || s.Path != "/a.html" {
			t.Fatalf("step = %+v", s)
		}
	}
	apply(t, tbl, plan)
	rec, err := tbl.Lookup("/a.html")
	if err != nil || len(rec.Locations) != 2 {
		t.Fatalf("after apply: %+v, %v", rec, err)
	}
}

func TestInsertPlanNoNodes(t *testing.T) {
	if _, err := InsertPlan(obj("/a", 1), nil); !errors.Is(err, ErrNoNodes) {
		t.Fatalf("err = %v", err)
	}
}

func TestDeletePlan(t *testing.T) {
	tbl := newTable(t)
	_ = tbl.Insert(obj("/a.html", 1), "n1", "n3")
	plan, err := DeletePlan(tbl, "/a.html")
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 2 {
		t.Fatalf("steps = %v", plan.Steps)
	}
	nodes := map[config.NodeID]bool{}
	for _, s := range plan.Steps {
		if s.Kind != StepDelete {
			t.Fatalf("step kind = %v", s.Kind)
		}
		nodes[s.Node] = true
	}
	if !nodes["n1"] || !nodes["n3"] {
		t.Fatalf("delete targets = %v", nodes)
	}
	apply(t, tbl, plan)
	if _, err := tbl.Lookup("/a.html"); err == nil {
		t.Fatal("entry survived delete plan")
	}
}

func TestDeletePlanMissing(t *testing.T) {
	if _, err := DeletePlan(newTable(t), "/nope"); err == nil {
		t.Fatal("missing path accepted")
	}
}

func TestRenamePlan(t *testing.T) {
	tbl := newTable(t)
	_ = tbl.Insert(obj("/old.html", 5), "n1", "n2")
	plan, err := RenamePlan(tbl, "/old.html", "/new.html")
	if err != nil {
		t.Fatal(err)
	}
	// Per node: one copy (to the new name) + one delete (old name).
	if len(plan.Steps) != 4 {
		t.Fatalf("steps = %v", plan.Steps)
	}
	copies, deletes := 0, 0
	for _, s := range plan.Steps {
		switch s.Kind {
		case StepCopy:
			copies++
			if s.DestPath != "/new.html" || s.Source != s.Node {
				t.Fatalf("copy step = %+v", s)
			}
		case StepDelete:
			deletes++
		}
	}
	if copies != 2 || deletes != 2 {
		t.Fatalf("copies=%d deletes=%d", copies, deletes)
	}
	apply(t, tbl, plan)
	if _, err := tbl.Lookup("/new.html"); err != nil {
		t.Fatal("new path missing after rename")
	}
}

func TestReplicatePlan(t *testing.T) {
	tbl := newTable(t)
	_ = tbl.Insert(obj("/a.html", 1), "n1")
	plan, err := ReplicatePlan(tbl, "/a.html", "", "n2")
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 1 || plan.Steps[0].Kind != StepCopy ||
		plan.Steps[0].Source != "n1" || plan.Steps[0].Node != "n2" {
		t.Fatalf("steps = %v", plan.Steps)
	}
	apply(t, tbl, plan)
	rec, _ := tbl.Lookup("/a.html")
	if !rec.HasLocation("n2") {
		t.Fatal("location not added")
	}
}

func TestReplicatePlanValidation(t *testing.T) {
	tbl := newTable(t)
	_ = tbl.Insert(obj("/a.html", 1), "n1")
	if _, err := ReplicatePlan(tbl, "/a.html", "n9", "n2"); err == nil {
		t.Fatal("bogus source accepted")
	}
	if _, err := ReplicatePlan(tbl, "/a.html", "", "n1"); err == nil {
		t.Fatal("replication onto existing holder accepted")
	}
	if _, err := ReplicatePlan(tbl, "/missing", "", "n2"); err == nil {
		t.Fatal("missing path accepted")
	}
}

func TestOffloadPlan(t *testing.T) {
	tbl := newTable(t)
	_ = tbl.Insert(obj("/a.html", 1), "n1", "n2")
	plan, err := OffloadPlan(tbl, "/a.html", "n1")
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 1 || plan.Steps[0].Kind != StepDelete || plan.Steps[0].Node != "n1" {
		t.Fatalf("steps = %v", plan.Steps)
	}
	apply(t, tbl, plan)
	rec, _ := tbl.Lookup("/a.html")
	if rec.HasLocation("n1") || !rec.HasLocation("n2") {
		t.Fatalf("locations = %v", rec.Locations)
	}
}

func TestOffloadPlanLastCopyRefused(t *testing.T) {
	tbl := newTable(t)
	_ = tbl.Insert(obj("/a.html", 1), "n1")
	if _, err := OffloadPlan(tbl, "/a.html", "n1"); err == nil {
		t.Fatal("last-copy offload accepted")
	}
}

func TestOffloadPlanNotHolder(t *testing.T) {
	tbl := newTable(t)
	_ = tbl.Insert(obj("/a.html", 1), "n1", "n2")
	if _, err := OffloadPlan(tbl, "/a.html", "n5"); err == nil {
		t.Fatal("offload from non-holder accepted")
	}
}

func TestAssignPlan(t *testing.T) {
	tbl := newTable(t)
	_ = tbl.Insert(obj("/a.html", 1), "n1", "n2")
	// Move to exactly {n2, n3}: copy to n3, delete from n1.
	plan, err := AssignPlan(tbl, "/a.html", "n2", "n3")
	if err != nil {
		t.Fatal(err)
	}
	var sawCopy, sawDelete bool
	for _, s := range plan.Steps {
		switch {
		case s.Kind == StepCopy && s.Node == "n3":
			sawCopy = true
		case s.Kind == StepDelete && s.Node == "n1":
			sawDelete = true
		default:
			t.Fatalf("unexpected step %+v", s)
		}
	}
	if !sawCopy || !sawDelete {
		t.Fatalf("steps = %v", plan.Steps)
	}
	apply(t, tbl, plan)
	rec, _ := tbl.Lookup("/a.html")
	if rec.HasLocation("n1") || !rec.HasLocation("n2") || !rec.HasLocation("n3") {
		t.Fatalf("locations = %v", rec.Locations)
	}
}

func TestAssignPlanNoop(t *testing.T) {
	tbl := newTable(t)
	_ = tbl.Insert(obj("/a.html", 1), "n1")
	plan, err := AssignPlan(tbl, "/a.html", "n1")
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 0 {
		t.Fatalf("no-op assign produced steps %v", plan.Steps)
	}
}

func TestAssignPlanNoNodes(t *testing.T) {
	tbl := newTable(t)
	_ = tbl.Insert(obj("/a.html", 1), "n1")
	if _, err := AssignPlan(tbl, "/a.html"); !errors.Is(err, ErrNoNodes) {
		t.Fatalf("err = %v", err)
	}
}

func TestView(t *testing.T) {
	tbl := newTable(t)
	_ = tbl.Insert(obj("/docs/a.html", 10), "n1")
	_ = tbl.Insert(obj("/docs/sub/b.html", 20), "n2")
	_ = tbl.Insert(obj("/top.html", 5), "n1", "n2")
	root := View(tbl)
	if root.Path != "/" {
		t.Fatalf("root = %q", root.Path)
	}
	if len(root.Files) != 1 || root.Files[0].Path != "/top.html" {
		t.Fatalf("root files = %v", root.Files)
	}
	if len(root.Dirs) != 1 || root.Dirs[0].Path != "/docs" {
		t.Fatalf("root dirs = %v", root.Dirs)
	}
	docs := root.Dirs[0]
	if len(docs.Files) != 1 || len(docs.Dirs) != 1 {
		t.Fatalf("docs = %+v", docs)
	}
	if docs.Dirs[0].Path != "/docs/sub" || docs.Dirs[0].Files[0].Path != "/docs/sub/b.html" {
		t.Fatalf("sub = %+v", docs.Dirs[0])
	}
}

func TestRender(t *testing.T) {
	tbl := newTable(t)
	_ = tbl.Insert(obj("/docs/a.html", 10), "n1")
	out := Render(View(tbl))
	if !strings.Contains(out, "a.html") || !strings.Contains(out, "n1") {
		t.Fatalf("render = %q", out)
	}
	if !strings.Contains(out, "/docs/") {
		t.Fatalf("render lacks directory line: %q", out)
	}
}

func TestStepString(t *testing.T) {
	s := Step{Kind: StepCopy, Node: "b", Source: "a", Path: "/p"}
	if s.String() != "copy /p a→b" {
		t.Fatalf("String = %q", s.String())
	}
	d := Step{Kind: StepDelete, Node: "n", Path: "/p"}
	if d.String() != "delete /p on n" {
		t.Fatalf("String = %q", d.String())
	}
}
