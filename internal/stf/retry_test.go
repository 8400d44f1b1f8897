package stf

import (
	"reflect"
	"testing"
	"time"
)

func TestRetryPolicyDelay(t *testing.T) {
	ms := time.Millisecond
	cases := []struct {
		p       RetryPolicy
		attempt int
		want    time.Duration
	}{
		{RetryPolicy{Backoff: ms}, 1, 0}, // the first attempt never waits
		{RetryPolicy{Backoff: ms}, 2, ms},
		{RetryPolicy{Backoff: ms}, 3, 2 * ms},
		{RetryPolicy{Backoff: ms}, 5, 8 * ms},
		{RetryPolicy{Backoff: ms, MaxBackoff: 5 * ms}, 4, 4 * ms},
		{RetryPolicy{Backoff: ms, MaxBackoff: 5 * ms}, 5, 5 * ms},
		{RetryPolicy{Backoff: ms, MaxBackoff: 5 * ms}, 60, 5 * ms},
		{RetryPolicy{Backoff: ms}, 9, 100 * ms}, // default cap: 100*Backoff
		{RetryPolicy{Backoff: ms}, 60, 100 * ms},
		{RetryPolicy{MaxBackoff: ms}, 3, 0}, // no Backoff, no delay
	}
	for _, c := range cases {
		if got := c.p.Delay(c.attempt); got != c.want {
			t.Errorf("%+v.Delay(%d) = %v, want %v", c.p, c.attempt, got, c.want)
		}
	}
}

func TestSnapshotWriteSet(t *testing.T) {
	vals := []int{10, 20, 30}
	var saved, restored []DataID
	snaps := SnapshotFuncs{
		Can: func(d DataID) bool { return d != 2 },
		Save: func(d DataID) func() {
			saved = append(saved, d)
			v := vals[d]
			return func() { restored = append(restored, d); vals[d] = v }
		},
	}

	// Reads and idempotent writes are not captured.
	restore, ok := SnapshotWriteSet(snaps, []Access{R(0), W(1).AsIdempotent()})
	if !ok || restore != nil || len(saved) != 0 {
		t.Fatalf("read + idempotent write: restore=%v ok=%v saved=%v", restore != nil, ok, saved)
	}

	// A non-idempotent write to unsnapshottable data makes the task
	// non-retryable, and nothing is captured.
	if _, ok := SnapshotWriteSet(snaps, []Access{W(2)}); ok {
		t.Error("unsnapshottable write reported retryable")
	}
	if _, ok := SnapshotWriteSet(nil, []Access{W(0)}); ok {
		t.Error("write without a Snapshotter reported retryable")
	}

	// Several captured objects restore together, in access order.
	restore, ok = SnapshotWriteSet(snaps, []Access{RW(0), R(2), Red(1)})
	if !ok || restore == nil {
		t.Fatalf("multi-object write-set: restore=%v ok=%v", restore != nil, ok)
	}
	if !reflect.DeepEqual(saved, []DataID{0, 1}) {
		t.Errorf("captured %v, want [0 1]", saved)
	}
	vals[0], vals[1] = -1, -2
	restore()
	if vals[0] != 10 || vals[1] != 20 || vals[2] != 30 {
		t.Errorf("after restore vals = %v, want [10 20 30]", vals)
	}
	if !reflect.DeepEqual(restored, []DataID{0, 1}) {
		t.Errorf("restored %v, want [0 1]", restored)
	}
}

func TestRetryBackoffSleep(t *testing.T) {
	// Runs to the end, ticking once per slice.
	ticks := 0
	if !BackoffSleep(3*backoffSlice/2, func() bool { return false }, func() { ticks++ }) {
		t.Error("unstopped backoff reported stopped")
	}
	if ticks != 2 {
		t.Errorf("ticks = %d, want 2 (one per slice)", ticks)
	}

	// Stopped before the first slice: no sleep, no tick.
	ticks = 0
	if BackoffSleep(time.Hour, func() bool { return true }, func() { ticks++ }) || ticks != 0 {
		t.Errorf("pre-stopped backoff: ticks = %d", ticks)
	}

	// Stopped during the last slice: the final re-check drops the attempt.
	polls := 0
	stopped := func() bool { polls++; return polls > 1 }
	if BackoffSleep(backoffSlice, stopped, nil) {
		t.Error("backoff stopped during its last slice reported success")
	}

	// Zero delay: nothing to sleep, only the stop check.
	if !BackoffSleep(0, func() bool { return false }, nil) {
		t.Error("zero backoff reported stopped")
	}
}

func TestNewPartialResult(t *testing.T) {
	resume := &Checkpoint{Tasks: 6, Completed: []TaskID{0, 1}}
	pr := NewPartialResult(6, resume, []TaskID{4, 1, 2, 4, 0}, []TaskID{5, 3, 5})
	if pr.Tasks != 6 {
		t.Errorf("Tasks = %d, want 6", pr.Tasks)
	}
	if !reflect.DeepEqual(pr.Completed, []TaskID{0, 1, 2, 4}) {
		t.Errorf("Completed = %v, want [0 1 2 4]", pr.Completed)
	}
	if !reflect.DeepEqual(pr.Failed, []TaskID{3, 5}) {
		t.Errorf("Failed = %v, want [3 5]", pr.Failed)
	}
	if len(resume.Completed) != 2 || resume.Completed[0] != 0 || resume.Completed[1] != 1 {
		t.Errorf("resume checkpoint mutated: %v", resume.Completed)
	}

	empty := NewPartialResult(3, nil, nil, nil)
	if len(empty.Completed) != 0 || len(empty.Failed) != 0 {
		t.Errorf("empty logs gave %+v", empty)
	}
	if got := empty.Skipped(); !reflect.DeepEqual(got, []TaskID{0, 1, 2}) {
		t.Errorf("Skipped = %v, want [0 1 2]", got)
	}
}
