package stf

import (
	"fmt"
	"sort"
	"time"
)

// Fault tolerance: the types shared by every engine's retry / checkpoint /
// resume machinery. The design follows the distributed task runtimes cited
// in PAPERS.md (Bosch et al.'s dependency-tracked re-execution, DuctTeip's
// runtime-managed data versioning), specialized to RIO's in-order model —
// where each worker's replay position plus the per-data termination state
// already forms a dependency-closed frontier, so a consistent checkpoint
// falls out of the protocol instead of requiring extra coordination.

// RetryPolicy configures transient-fault retry of task bodies. A task
// whose body panics (or is failed by a fault injector) is rolled back —
// its write-set restored from the pre-attempt snapshot — and re-executed,
// up to MaxAttempts total attempts with deterministic bounded backoff
// between them. A nil *RetryPolicy (the default everywhere) disables
// retry entirely and costs the execution hot path one pointer test.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per task, first try
	// included. Values <= 1 mean a single attempt (no retry), which still
	// enables completed-task tracking for checkpoints.
	MaxAttempts int
	// Backoff is the delay before the second attempt; subsequent delays
	// double, capped at MaxBackoff. Zero means no delay. The schedule is
	// deterministic (no jitter) so failing runs are reproducible.
	Backoff time.Duration
	// MaxBackoff caps the exponential schedule; 0 means 100*Backoff.
	MaxBackoff time.Duration
	// Classify, when non-nil, decides whether a recovered failure cause
	// is transient (retryable). A nil Classify treats every failure as
	// transient. A cause rejected by Classify fails the task on the spot,
	// with the attempts made so far recorded in the TaskFailure.
	Classify func(cause any) bool
}

// Transient reports whether the policy classifies cause as retryable.
func (p *RetryPolicy) Transient(cause any) bool {
	if p.Classify == nil {
		return true
	}
	return p.Classify(cause)
}

// Delay returns the backoff before attempt number attempt (attempt >= 2;
// the first attempt never waits). The schedule is Backoff * 2^(attempt-2),
// capped at MaxBackoff — deterministic, so a failing run replays the same
// timing every time.
func (p *RetryPolicy) Delay(attempt int) time.Duration {
	if p.Backoff <= 0 || attempt <= 1 {
		return 0
	}
	max := p.MaxBackoff
	if max <= 0 {
		max = 100 * p.Backoff
	}
	d := p.Backoff
	for i := 2; i < attempt; i++ {
		d *= 2
		if d >= max {
			return max
		}
	}
	if d > max {
		return max
	}
	return d
}

// FaultOptions groups the fault-tolerance knobs every engine honours:
// retry with write-set rollback, checkpointing and resume. The zero value
// disables all of it.
type FaultOptions struct {
	// Retry installs transient-fault tolerance: a task body that panics
	// (or fails per Retry.Classify) has its write-set rolled back via
	// Snapshots and is re-executed after a deterministic backoff, up to
	// Retry.MaxAttempts times. Tasks whose written data is neither
	// idempotent (see Access.AsIdempotent) nor snapshottable get exactly
	// one attempt. nil (the default) disables retry and costs the hot path
	// one pointer test per task. Retry implies Checkpoint.
	Retry *RetryPolicy
	// Snapshots captures and restores data objects for retry rollback.
	// Without it, only tasks whose writes are all idempotent are retried.
	Snapshots Snapshotter
	// Resume skips the tasks recorded as completed in a previous run's
	// Checkpoint (obtained from a PartialError); their effects must still
	// be present in the data objects. The program (or graph) must be the
	// one that produced the checkpoint.
	Resume *Checkpoint
	// Checkpoint enables completed-task tracking: a failed run returns a
	// *PartialError whose PartialResult carries the dependency-closed
	// completed frontier for Resume. Implied by Retry.
	Checkpoint bool
}

// Tracking reports whether completed tasks must be logged: checkpointing
// was requested, or implied by a retry policy.
func (o FaultOptions) Tracking() bool { return o.Checkpoint || o.Retry != nil }

// Snapshotter is the capability that makes rollback possible: it captures
// the value of one runtime-managed data object and returns a closure that
// restores it. The runtime invokes it on the executing worker, after the
// task's dependencies have resolved and its reduction locks are held, so a
// snapshot always observes a quiescent object — no other task is accessing
// it (sequential consistency guarantees exclusivity of the write-set).
//
// Data objects the Snapshotter cannot capture (CanSnapshot false) make the
// tasks writing them non-retryable, unless every such access carries the
// Idempotent flag (re-executing the write is harmless by construction).
type Snapshotter interface {
	// CanSnapshot reports whether d can be captured and restored.
	CanSnapshot(d DataID) bool
	// Snapshot captures d's current value and returns a closure restoring
	// it. Called only for data CanSnapshot accepted.
	Snapshot(d DataID) (restore func())
}

// SnapshotFuncs adapts two closures into a Snapshotter. A nil Can accepts
// every data object.
type SnapshotFuncs struct {
	Can  func(DataID) bool
	Save func(DataID) (restore func())
}

// CanSnapshot implements Snapshotter.
func (s SnapshotFuncs) CanSnapshot(d DataID) bool {
	return s.Can == nil || s.Can(d)
}

// Snapshot implements Snapshotter.
func (s SnapshotFuncs) Snapshot(d DataID) func() { return s.Save(d) }

// SnapshotWriteSet captures the write-set of a task about to execute: every
// access that writes or reduces into a data object and is not flagged
// Idempotent. It returns a single closure restoring all captured objects
// (nil when nothing needed capturing) and whether retrying the task is safe
// — false when some non-idempotent written data cannot be snapshotted (s is
// nil or CanSnapshot rejected it), in which case nothing is captured and
// the task must not be retried.
func SnapshotWriteSet(s Snapshotter, accesses []Access) (restore func(), ok bool) {
	var restores []func()
	for _, a := range accesses {
		if !a.Mode.Writes() && !a.Mode.Commutes() {
			continue
		}
		if a.Idempotent {
			continue
		}
		if s == nil || !s.CanSnapshot(a.Data) {
			return nil, false
		}
		restores = append(restores, s.Snapshot(a.Data))
	}
	if len(restores) == 0 {
		return nil, true
	}
	if len(restores) == 1 {
		return restores[0], true
	}
	return func() {
		for _, r := range restores {
			r()
		}
	}, true
}

// TaskFailure is the terminal failure of one task: its retries (if any)
// were exhausted, its failure was classified permanent, or its write-set
// could not be snapshotted so no retry was possible. The task's write-set
// was restored to its pre-attempt state where a snapshot existed, so the
// data a checkpointed resume re-executes over is clean. Retrieve it from a
// run error with errors.As.
type TaskFailure struct {
	// Task is the failed task.
	Task TaskID
	// Attempts is the number of attempts made (>= 1).
	Attempts int
	// Cause is the recovered failure cause of the last attempt.
	Cause any
}

// Error implements error.
func (f *TaskFailure) Error() string {
	return fmt.Sprintf("task %d failed after %d attempt(s): %v", f.Task, f.Attempts, f.Cause)
}

// Checkpoint is a dependency-closed frontier of a partially executed task
// flow: the set of tasks whose effects are fully published in data memory.
// Passing it as Options.Fault.Resume makes the next run of the same flow
// skip exactly these tasks; because the set is dependency-closed and the
// skipped tasks' results are already in memory, the resumed run converges
// to the same final state as an uninterrupted one (see DESIGN.md, "Fault
// tolerance").
type Checkpoint struct {
	// Tasks is the length of the task-flow prefix the interrupted run
	// observed (the highest submitted ID + 1); tasks at or beyond it were
	// never reached.
	Tasks int
	// Completed lists the completed tasks, sorted ascending.
	Completed []TaskID
}

// Contains reports whether id is in the completed set.
func (c *Checkpoint) Contains(id TaskID) bool {
	n := len(c.Completed)
	i := sort.Search(n, func(i int) bool { return c.Completed[i] >= id })
	return i < n && c.Completed[i] == id
}

// Len returns the number of completed tasks.
func (c *Checkpoint) Len() int { return len(c.Completed) }

// PartialResult describes how far an aborted run got: which tasks
// completed (effects fully published), which failed terminally, and — by
// subtraction — which were skipped. Engines attach it to the run error
// through a PartialError whenever fault-tolerance tracking is enabled
// (a retry policy or checkpointing requested).
type PartialResult struct {
	// Tasks is the observed task-flow prefix length (highest submitted
	// ID + 1). Under an abort the engines may not have unrolled the whole
	// flow, so this is a lower bound on the flow's true length.
	Tasks int
	// Completed lists tasks whose effects are fully published, sorted
	// ascending. The set is dependency-closed: every predecessor of a
	// completed task is itself completed.
	Completed []TaskID
	// Failed lists tasks that failed terminally (retries exhausted or
	// permanent failure), sorted ascending.
	Failed []TaskID
}

// Checkpoint returns the resumable frontier of the partial run.
func (r *PartialResult) Checkpoint() *Checkpoint {
	return &Checkpoint{Tasks: r.Tasks, Completed: r.Completed}
}

// Skipped returns the tasks of the observed prefix that neither completed
// nor failed: tasks the abort drained away before they could run.
func (r *PartialResult) Skipped() []TaskID {
	in := make(map[TaskID]bool, len(r.Completed)+len(r.Failed))
	for _, id := range r.Completed {
		in[id] = true
	}
	for _, id := range r.Failed {
		in[id] = true
	}
	var out []TaskID
	for id := TaskID(0); id < TaskID(r.Tasks); id++ {
		if !in[id] {
			out = append(out, id)
		}
	}
	return out
}

// PartialError wraps a run's failure cause with the PartialResult of the
// aborted run. Unwrap exposes the cause, so errors.Is / errors.As keep
// seeing through to context cancellation, StallError, TaskFailure and the
// other verdicts.
type PartialError struct {
	// Cause is the run's underlying failure.
	Cause error
	// Result describes what the aborted run completed.
	Result *PartialResult
}

// Error implements error.
func (e *PartialError) Error() string {
	return fmt.Sprintf("%v (%d task(s) completed, %d failed; resumable)",
		e.Cause, len(e.Result.Completed), len(e.Result.Failed))
}

// Unwrap exposes the underlying failure for errors.Is / errors.As.
func (e *PartialError) Unwrap() error { return e.Cause }

// NewPartialResult assembles the PartialResult of an aborted run from an
// engine's own logs: tasks is the observed flow-prefix length, resume the
// checkpoint the run skipped (its tasks stay completed), completed and
// failed the tasks the run finished and failed terminally, in any order
// and possibly repeated. Both sets come back sorted ascending without
// duplicates. failed is sorted in place.
func NewPartialResult(tasks int, resume *Checkpoint, completed, failed []TaskID) *PartialResult {
	var done []TaskID
	if resume != nil {
		done = append(done, resume.Completed...)
	}
	done = append(done, completed...)
	return &PartialResult{Tasks: tasks, Completed: sortedUnique(done), Failed: sortedUnique(failed)}
}

// sortedUnique sorts ids ascending and compacts out repeats, in place.
func sortedUnique(ids []TaskID) []TaskID {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := ids[:0]
	for i, id := range ids {
		if i == 0 || id != ids[i-1] {
			out = append(out, id)
		}
	}
	return out
}

// backoffSlice bounds each individual sleep of a retry backoff, so an
// aborted run cuts the wait short and a watchdog keeps seeing a heartbeat.
const backoffSlice = 10 * time.Millisecond

// BackoffSleep sleeps d in slices of at most 10ms, the retry backoff every
// engine shares. stopped is polled before each slice and once after the
// last one; tick, when non-nil, runs after every slice (the in-order
// engine re-stamps its watchdog heartbeat there: a task in backoff is
// live, not stuck). It reports false when stopped cut the wait short or
// turned true by its end, in which case the caller must drop the attempt.
func BackoffSleep(d time.Duration, stopped func() bool, tick func()) bool {
	for d > 0 {
		if stopped() {
			return false
		}
		step := min(d, backoffSlice)
		time.Sleep(step)
		d -= step
		if tick != nil {
			tick()
		}
	}
	return !stopped()
}
