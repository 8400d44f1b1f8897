package rio_test

// Tests for the grouped Options layout (Options.Tuning, Options.Fault): the
// grouped fields reach every engine.

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"rio"
)

// TestOptionsGroupedTuningRuns: an engine configured purely through the
// grouped Tuning fields runs correctly under every model.
func TestOptionsGroupedTuningRuns(t *testing.T) {
	for _, m := range []rio.Model{rio.InOrder, rio.Centralized, rio.Sequential} {
		rt, err := rio.New(rio.Options{
			Model:   m,
			Workers: 2,
			Tuning: rio.TuningOptions{
				WaitPolicy: rio.WaitPark,
				SpinLimit:  128,
				YieldLimit: 16,
				SleepInit:  time.Microsecond,
				SleepMax:   time.Millisecond,
			},
		})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		var got int64
		err = rt.Run(2, func(s rio.Submitter) {
			s.Submit(func() { atomic.StoreInt64(&got, 40) }, rio.Write(0))
			s.Submit(func() { atomic.AddInt64(&got, 2) }, rio.Read(0), rio.Write(1))
		})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if atomic.LoadInt64(&got) != 42 {
			t.Errorf("%v: got %d, want 42", m, got)
		}
	}
}

// TestOptionsGroupedFaultRuns: retry configured through Options.Fault
// actually retries and rolls back through the snapshots — functional proof
// the grouped fields reach the engine, not just accepted.
func TestOptionsGroupedFaultRuns(t *testing.T) {
	for _, m := range []rio.Model{rio.InOrder, rio.Centralized, rio.Sequential} {
		var attempts atomic.Int64
		saved := make(map[rio.DataID]int64)
		vals := make([]int64, 1)
		snaps := rio.SnapshotFuncs{
			Save: func(d rio.DataID) func() {
				v := vals[d]
				return func() { saved[d] = v; vals[d] = v }
			},
		}
		rt, err := rio.New(rio.Options{
			Model:   m,
			Workers: 2,
			Fault: rio.FaultOptions{
				Retry:     &rio.RetryPolicy{MaxAttempts: 3},
				Snapshots: snaps,
			},
		})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		err = rt.Run(1, func(s rio.Submitter) {
			s.Submit(func() {
				vals[0]++
				if attempts.Add(1) < 3 {
					panic("transient")
				}
			}, rio.RW(0))
		})
		if err != nil {
			t.Fatalf("%v: run with grouped Fault: %v", m, err)
		}
		if attempts.Load() != 3 {
			t.Errorf("%v: %d attempts, want 3 (grouped Retry not wired)", m, attempts.Load())
		}
		if vals[0] != 1 {
			t.Errorf("%v: vals[0] = %d, want 1 (rollback through grouped Snapshots)", m, vals[0])
		}
	}

}

// TestOptionsFaultCheckpointORed: completed-task tracking is on when
// Fault.Checkpoint is set, when a Fault.Retry policy is set (retry implies
// checkpointing), or both; under every model a run whose failure outlives
// the policy returns a PartialError with a resumable frontier.
func TestOptionsFaultCheckpointORed(t *testing.T) {
	for _, m := range []rio.Model{rio.InOrder, rio.Centralized, rio.Sequential} {
		for name, f := range map[string]rio.FaultOptions{
			"checkpoint":       {Checkpoint: true},
			"retry":            {Retry: &rio.RetryPolicy{MaxAttempts: 2}},
			"checkpoint+retry": {Checkpoint: true, Retry: &rio.RetryPolicy{MaxAttempts: 2}},
		} {
			rt, err := rio.New(rio.Options{Model: m, Workers: 2, Fault: f})
			if err != nil {
				t.Fatalf("%v/%s: %v", m, name, err)
			}
			err = rt.Run(1, func(s rio.Submitter) {
				s.Submit(func() {}, rio.Write(0))
				s.Submit(func() { panic("fail") }, rio.RW(0))
			})
			var pe *rio.PartialError
			if !errors.As(err, &pe) {
				t.Fatalf("%v/%s: checkpointing run did not return PartialError: %v", m, name, err)
			}
			if len(pe.Result.Checkpoint().Completed) != 1 {
				t.Errorf("%v/%s: checkpoint frontier = %v, want task 0", m, name, pe.Result.Checkpoint().Completed)
			}
		}
	}
}
