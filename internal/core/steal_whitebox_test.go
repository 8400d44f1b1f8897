package core

import (
	"testing"
	"time"

	"rio/internal/stf"
)

// TestStealStateVictimResolution: the policy's ranked list is deduped and
// self-filtered; an empty list resolves to the neighbor ring after self.
func TestStealStateVictimResolution(t *testing.T) {
	ranked := newStealState(&stf.StealPolicy{Victims: []stf.WorkerID{2, 1, 2, 1, 3}}, 1, 4)
	if got, want := ranked.victims, []stf.WorkerID{2, 3}; !equalVictims(got, want) {
		t.Errorf("ranked victims = %v, want %v", got, want)
	}
	if ranked.victimSet[1] || !ranked.victimSet[2] || !ranked.victimSet[3] || ranked.victimSet[0] {
		t.Errorf("ranked victimSet = %v", ranked.victimSet)
	}

	ring := newStealState(&stf.StealPolicy{}, 2, 4)
	if got, want := ring.victims, []stf.WorkerID{3, 0, 1}; !equalVictims(got, want) {
		t.Errorf("neighbor-ring victims = %v, want %v", got, want)
	}
	if len(ring.cursors) != len(ring.victims) {
		t.Errorf("cursors len %d, victims len %d", len(ring.cursors), len(ring.victims))
	}

	solo := newStealState(&stf.StealPolicy{}, 0, 1)
	if len(solo.victims) != 0 {
		t.Errorf("single-worker engine has victims %v", solo.victims)
	}
}

// TestStealEpochQuiescence: steal state never survives an epoch boundary.
// After a streaming session drains, every worker's candidate ring must be
// empty — the end-of-window drain runs before the barrier arrival, so a
// candidate recorded in window k can never be claimed or executed once
// window k's epoch has been recycled. The windows here are fully skewed
// with slow tasks, so the rings are heavily exercised.
func TestStealEpochQuiescence(t *testing.T) {
	const (
		numData = 8
		windows = 6
	)
	e, err := New(Options{
		Workers: 3,
		Mapping: func(stf.TaskID) stf.WorkerID { return 0 },
		Steal:   &stf.StealPolicy{},
	})
	if err != nil {
		t.Fatal(err)
	}
	ss, err := e.OpenSession(numData, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()

	tasks := make([]stf.Task, numData)
	for i := range tasks {
		tasks[i] = stf.Task{ID: stf.TaskID(i), Accesses: []stf.Access{stf.W(stf.DataID(i))}}
	}
	touched := make([]stf.DataID, numData)
	for i := range touched {
		touched[i] = stf.DataID(i)
	}
	kern := func(*stf.Task, stf.WorkerID) { time.Sleep(100 * time.Microsecond) }

	var stolen int64
	for w := 0; w < windows; w++ {
		if err := ss.Flush(WindowRun{Tasks: tasks, Kernel: kern, Touched: touched}); err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
		if err := ss.Drain(); err != nil {
			t.Fatalf("drain after window %d: %v", w, err)
		}
		// The barrier has passed: every worker finished its replay AND its
		// steal drain. Any candidate still in a ring here could be claimed
		// against recycled counters in the next epoch.
		for wk, sub := range ss.subs {
			if sub.steal == nil {
				t.Fatalf("worker %d has no steal state", wk)
			}
			if n := len(sub.steal.ring); n != 0 {
				t.Errorf("window %d: worker %d ring holds %d candidates at the epoch boundary", w, wk, n)
			}
			stolen += sub.ws.Stolen
		}
	}
	if stolen == 0 {
		t.Error("quiescence test exercised no steals")
	}
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStealRingSlotReuse: a candidate dropped from the ring frees its slot,
// and the next recording reuses that slot's requirement buffer. The live
// candidates that compaction moved must keep their own buffers — a
// recording into a freed slot may never overwrite a live candidate's
// readiness proof.
func TestStealRingSlotReuse(t *testing.T) {
	const numData = 4
	shared := make([]sharedState, numData)
	for i := range shared {
		shared[i].lastExecutedWrite.Store(int64(stf.NoTask)) // nothing ready
	}
	s := &submitter{
		eng:    &Engine{workers: 2},
		worker: 0,
		shared: shared,
		local:  newLocalArena(2, numData).worker(0),
		claims: newClaimTable(),
		steal:  newStealState(&stf.StealPolicy{}, 0, 2),
	}
	for d := range s.local {
		s.local[d].lastRegisteredWrite = int64(100 + d)
	}
	record := func(id stf.TaskID, data ...stf.DataID) {
		acc := make([]stf.Access, len(data))
		for i, d := range data {
			acc[i] = stf.R(d)
		}
		s.recordStealCand(1, id, acc, taskBody{})
	}
	record(1, 0)
	record(2, 1, 2)
	record(3, 3)
	s.claims.tryClaim(1) // resolved elsewhere: the next scan drops it
	if s.tryStealRing() {
		t.Fatal("stole a candidate whose dependencies are unresolved")
	}
	record(4, 0)

	ring := s.steal.ring
	want := []struct {
		id   stf.TaskID
		data []stf.DataID
	}{{2, []stf.DataID{1, 2}}, {3, []stf.DataID{3}}, {4, []stf.DataID{0}}}
	if len(ring) != len(want) {
		t.Fatalf("ring holds %d candidates, want %d", len(ring), len(want))
	}
	for i, w := range want {
		c := ring[i]
		if c.id != w.id || len(c.reqs) != len(w.data) {
			t.Fatalf("slot %d = task %d with %d reqs, want task %d with %d", i, c.id, len(c.reqs), w.id, len(w.data))
		}
		for j, d := range w.data {
			if r := c.reqs[j]; r.Data != d || r.LastWrite != int64(100+d) {
				t.Errorf("task %d req %d = data %d lastWrite %d, want data %d lastWrite %d", c.id, j, r.Data, r.LastWrite, d, 100+d)
			}
		}
	}
	if allocs := testing.AllocsPerRun(10, func() {
		s.steal.ring = s.steal.ring[:0]
		record(5, 1)
	}); allocs > 1 {
		t.Errorf("recording into a warmed ring allocates %.0f objects besides the access list", allocs)
	}
}

func equalVictims(got, want []stf.WorkerID) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}
