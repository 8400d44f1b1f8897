package core

import "rio/internal/stf"

// Task retry with write-set rollback. When a RetryPolicy is installed, the
// per-worker recover moves from the worker goroutine (where a panic aborts
// the whole run) down to the individual attempt: the write-set is
// snapshotted before the first attempt, a recovered failure rolls it back,
// and the body re-executes after a deterministic bounded backoff. Only
// when the attempts are exhausted — or the failure is classified permanent,
// or the write-set cannot be snapshotted — does the failure surface as a
// run abort, now carrying a *stf.TaskFailure instead of a bare panic
// message. With a nil policy none of this code runs: the execution paths
// pay a single pointer test.

// runAttempts executes one task body under the worker's retry policy. It
// is only called with s.retry != nil; the reduction locks of the task are
// held and its dependencies have resolved, so the write-set is quiescent
// and safe to snapshot. It returns whether the task completed; on terminal
// failure the worker's error is set to a *stf.TaskFailure and the run
// abort is raised (graceful: other workers drain their in-flight bodies).
func (s *submitter) runAttempts(accesses []stf.Access, id int64, b taskBody) bool {
	p := s.retry
	restore, can := stf.SnapshotWriteSet(s.snaps, accesses)
	maxAttempts := p.MaxAttempts
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	if !can {
		// No rollback possible: one shot. The preflight RIO-R001 pass
		// reports this configuration before a run ever gets here.
		maxAttempts = 1
	}
	for attempt := 1; ; attempt++ {
		cause, ok := s.tryOnce(b)
		if ok {
			return true
		}
		if restore != nil {
			// Roll back even when the failure is terminal: a checkpointed
			// resume re-executes this task over its pre-attempt data.
			restore()
		}
		if attempt >= maxAttempts || !p.Transient(cause) || s.abort.raised() {
			tf := &stf.TaskFailure{Task: stf.TaskID(id), Attempts: attempt, Cause: cause}
			s.fail(tf)
			s.abort.raise(tf, false)
			return false
		}
		s.ws.Retried++
		s.prog.StoreRetried(s.ws.Retried)
		if h := s.hooks; h != nil && h.OnTaskRetry != nil {
			h.OnTaskRetry(s.worker, stf.TaskID(id), attempt, cause)
		}
		if !stf.BackoffSleep(p.Delay(attempt+1), s.abort.stopped, s.heartbeat(id)) {
			s.fail(errAborted)
			return false
		}
	}
}

// tryOnce runs the body once, converting a panic into a returned cause.
func (s *submitter) tryOnce(b taskBody) (cause any, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			cause = r
			ok = false
		}
	}()
	s.runBody(b)
	return nil, true
}

// heartbeat returns the per-slice tick of a retry backoff: with the
// watchdog armed it re-stamps the worker's heartbeat, so to the watchdog
// the task has been "busy" only since the last slice, never across the
// whole backoff schedule.
func (s *submitter) heartbeat(id int64) func() {
	h := s.health
	if h == nil {
		return nil
	}
	return func() { h.setExec(id) }
}
