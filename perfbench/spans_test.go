package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	ss := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 30},
		{ID: 2, Parent: 0, Start: 20, End: 50},   // overlaps span 1: counted once
		{ID: 3, Parent: 0, Start: 90, End: 120},  // reaches past the parent: clipped
		{ID: 4, Parent: 2, Start: 25, End: 35},   // grandchild: only span 2's
		{ID: 5, Parent: 0, Start: 200, End: 300}, // entirely outside the parent
	}
	want := []int64{100 - 40 - 10, 20, 30 - 10, 30, 10, 100}
	got := selfTimes(ss)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestSelfTimesWithoutChildren(t *testing.T) {
	got := selfTimes([]span{{ID: 0, Parent: -1, Start: 5, End: 9}})
	if got[0] != 4 {
		t.Errorf("self time = %d, want 4", got[0])
	}
}

func TestTracerAggregatesAndOffIsNoOp(t *testing.T) {
	tr := newTracer(true, time.Now(), 3)
	for i := 0; i < 2; i++ {
		tr.beginOp()
		root := tr.add("op", -1, 0, 100)
		tr.add("child", root, 10, 40)
		tr.endOp()
	}
	if a := tr.agg["op"]; a.n != 2 || a.total != 200 || a.self != 140 {
		t.Errorf("op aggregate = %+v", a)
	}
	if tr.selfMeanUS("op") != 0.07 || tr.meanUS("child") != 0.03 || tr.p50US("child") != 0.03 {
		t.Errorf("self mean %g, child mean %g, child p50 %g", tr.selfMeanUS("op"), tr.meanUS("child"), tr.p50US("child"))
	}
	if len(tr.kept) != 3 || tr.kept[2].Op != 2 {
		t.Errorf("kept %d spans, want the first 3", len(tr.kept))
	}

	off := newTracer(false, time.Now(), 10)
	off.beginOp()
	id := off.open("x", -1)
	off.close(id)
	off.endOp()
	if id != -1 || len(off.agg) != 0 || len(off.kept) != 0 {
		t.Error("a tracer that is off recorded spans")
	}
}
