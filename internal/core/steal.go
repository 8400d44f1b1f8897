package core

// Bounded, dependency-safe work stealing (Options.Steal): the imbalance
// escape hatch of the hybrid execution model. See internal/stf/steal.go for
// the safety argument (flow-prefix counter snapshots prove readiness; a
// per-task atomic claim arbitrates the executor; the thief publishes the
// canonical terminate effects), and DESIGN.md §13 for the full proof.
//
// Mechanically there are two modes, chosen by whether the run carries
// compiled steal metadata:
//
//   - ring mode (closure replay): as a worker's replay declares a foreign
//     task owned by a victim, it snapshots its private counters for the
//     task's accesses — those *are* the task's registered values — into a
//     bounded candidate ring. Steal attempts scan the ring front (earliest
//     task first), drop candidates already claimed elsewhere, and claim the
//     first candidate whose shared cells prove readiness.
//   - table mode (compiled replay): stf.BuildStealMeta precomputed every
//     task's owner and registered values, so no recording is needed; a
//     per-victim cursor walks each victim's owned tasks in flow order and
//     always points at the victim's next unclaimed task.
//
// Steal attempts fire from two places: the slow phase of a dependency wait
// (the worker is provably not runnable locally) and the end-of-replay drain
// (the worker has nothing left of its own; it keeps stealing until every
// candidate is claimed or the run aborts). Both sites poll the abort latch.

import (
	"runtime"
	"slices"
	"time"

	"rio/internal/stf"
)

// stealCand is one recorded steal opportunity of ring mode.
type stealCand struct {
	id       stf.TaskID
	owner    stf.WorkerID
	accesses []stf.Access
	// reqs are the task's registered counter values, snapshotted from the
	// recording worker's private state at declare time (one per access).
	// The buffer belongs to the ring slot: a slot reused by a later
	// recording overwrites it in place.
	reqs []stf.StealReq
	body taskBody
}

// stealState is one worker's stealing machinery, allocated only when
// Options.Steal is set — a nil-policy run pays a single pointer test per
// task and allocates nothing.
type stealState struct {
	scanBound int
	// victims is the resolved scan order: the policy's ranked list (self
	// excluded) or, when empty, every other worker in neighbor-ring order
	// starting after the thief.
	victims []stf.WorkerID
	// victimSet indexes victims by worker for the ring-mode recording
	// filter.
	victimSet []bool
	ringCap   int
	// ring holds the live candidates; the slots between its length and
	// capacity are free, each keeping its reqs buffer for reuse, so a
	// warmed ring records without allocating.
	ring []stealCand

	// Table mode (nil meta selects ring mode). tasks and kernel are the
	// current run's (or window's) task table and dispatcher; cursors is
	// per-victim (parallel to victims) and points into meta.ByOwner.
	meta    *stf.StealMeta
	tasks   []stf.Task
	kernel  stf.Kernel
	cursors []int
}

// newStealState resolves a policy against this worker's identity. workers
// is the engine's worker count.
func newStealState(p *stf.StealPolicy, self stf.WorkerID, workers int) *stealState {
	st := &stealState{
		scanBound: p.ScanBound(),
		victimSet: make([]bool, workers),
		ringCap:   p.RingCap(),
	}
	if len(p.Victims) > 0 {
		for _, v := range p.Victims {
			if v != self && v >= 0 && int(v) < workers && !st.victimSet[v] {
				st.victims = append(st.victims, v)
				st.victimSet[v] = true
			}
		}
	} else {
		for i := 1; i < workers; i++ {
			v := stf.WorkerID((int(self) + i) % workers)
			st.victims = append(st.victims, v)
			st.victimSet[v] = true
		}
	}
	st.cursors = make([]int, len(st.victims))
	return st
}

// reset rearms the state for a new run or stream window: table mode when
// the caller supplies compiled steal metadata, ring mode otherwise. Steal
// state never survives an epoch boundary — the session resets it before
// each window and drains it before the window's barrier.
func (st *stealState) reset(meta *stf.StealMeta, tasks []stf.Task, kernel stf.Kernel) {
	// Drop the previous run's task references; keep the reqs buffers.
	slots := st.ring[:cap(st.ring)]
	for i := range slots {
		slots[i].accesses, slots[i].body = nil, taskBody{}
	}
	st.ring = st.ring[:0]
	st.meta, st.tasks, st.kernel = meta, tasks, kernel
	for i := range st.cursors {
		st.cursors[i] = 0
	}
}

// wants reports whether a foreign task owned by owner should be recorded as
// a ring-mode steal candidate.
func (st *stealState) wants(owner stf.WorkerID) bool {
	return st.meta == nil && owner >= 0 && int(owner) < len(st.victimSet) &&
		st.victimSet[owner] && len(st.ring) < st.ringCap
}

// recordStealCand snapshots the registered counter values of a foreign task
// this worker's replay just reached — before declaring it, so the private
// counters still describe the flow prefix strictly before the task, which
// is exactly what its get_* calls will compare against. Only called when
// st.wants(owner) held.
func (s *submitter) recordStealCand(owner stf.WorkerID, id stf.TaskID, accesses []stf.Access, b taskBody) {
	st := s.steal
	n := len(st.ring)
	st.ring = slices.Grow(st.ring, 1)[:n+1]
	c := &st.ring[n]
	reqs := c.reqs[:0]
	for _, a := range accesses {
		lo := &s.local[a.Data]
		reqs = append(reqs, stf.StealReq{
			Data:       a.Data,
			Mode:       a.Mode,
			LastWrite:  lo.lastRegisteredWrite,
			Reads:      lo.nbReadsSinceWrite,
			Reds:       lo.nbRedsSinceWrite,
			RedsBefore: lo.nbRedsBeforeRun,
		})
	}
	*c = stealCand{id: id, owner: owner, accesses: accesses, reqs: reqs, body: b}
}

// trySteal makes one bounded steal attempt and reports whether a task was
// claimed and executed (or claimed and failed — either way the caller's
// local picture changed and its wait condition is worth re-checking).
func (s *submitter) trySteal() bool {
	if s.steal.meta != nil {
		return s.tryStealTable()
	}
	return s.tryStealRing()
}

// tryStealRing scans the candidate ring front: candidates claimed elsewhere
// are dropped (their executor is decided), up to scanBound live candidates
// are probed for readiness, and the first ready one is claimed by CAS and
// executed. A lost CAS (the owner reached the task, or another thief beat
// us) drops the candidate and counts a StealFailed.
func (s *submitter) tryStealRing() bool {
	st := s.steal
	ring := st.ring
	kept := 0
	probed := 0
	stole := false
	for i := range ring {
		c := &ring[i]
		if !stole && probed < st.scanBound {
			if s.claims.claimed(int64(c.id)) {
				continue // resolved elsewhere: drop
			}
			probed++
			if s.stealReady(c.reqs) {
				if s.claims.tryClaim(int64(c.id)) {
					s.stealExec(c.owner, c.id, c.accesses, c.body)
					stole = true
				} else {
					s.noteStealFailed() // lost the race at the last moment
				}
				continue // drop
			}
		}
		// Keep. Swap rather than copy, so every slot still owns exactly
		// one reqs buffer and the dropped ones end up free for reuse.
		if kept != i {
			ring[kept], ring[i] = ring[i], ring[kept]
		}
		kept++
	}
	st.ring = ring[:kept]
	return stole
}

// tryStealTable probes each victim's next unclaimed owned task (per-victim
// cursors over the compiled steal metadata), bounded by scanBound probes.
func (s *submitter) tryStealTable() bool {
	st := s.steal
	probed := 0
	for vi, v := range st.victims {
		if probed >= st.scanBound {
			return false
		}
		list := st.meta.ByOwner[v]
		cur := st.cursors[vi]
		for cur < len(list) && s.claims.claimed(int64(list[cur])) {
			cur++
		}
		st.cursors[vi] = cur
		if cur >= len(list) {
			continue
		}
		probed++
		idx := list[cur]
		if !s.stealReady(st.meta.Reqs[idx]) {
			continue
		}
		if !s.claims.tryClaim(int64(idx)) {
			st.cursors[vi] = cur + 1
			s.noteStealFailed()
			continue
		}
		st.cursors[vi] = cur + 1
		t := &st.tasks[idx]
		s.stealExec(v, stf.TaskID(idx), t.Accesses, taskBody{t: t, k: st.kernel})
		return true
	}
	return false
}

// stealReady checks a candidate's registered values against the live shared
// cells — the same readiness predicate its owner's get_* calls would
// evaluate, valid from any worker because the values describe the flow, not
// the evaluator. Once true it stays true (see internal/stf/steal.go), so a
// subsequent claim cannot outrun the proof.
func (s *submitter) stealReady(reqs []stf.StealReq) bool {
	for i := range reqs {
		r := &reqs[i]
		sh := &s.shared[r.Data]
		if !r.Ready(sh.lastExecutedWrite.Load(), sh.nbReadsSinceWrite.Load(), sh.nbRedsSinceWrite.Load()) {
			return false
		}
	}
	return true
}

// stealExec runs a task this worker just claimed from owner: the stolen
// twin of execLocked. The lifecycle (reduction locks, health, hooks, retry)
// is identical; the completion publication differs — the thief performs
// shared-only terminates (releaseStolen), because its *own* replay declares
// the task separately at its flow position (it already has, in ring mode;
// it may not have reached it yet, in table mode — either way the private
// bookkeeping belongs to the replay, not to the execution).
func (s *submitter) stealExec(owner stf.WorkerID, id stf.TaskID, accesses []stf.Access, b taskBody) {
	if h := s.hooks; h != nil && h.OnTaskSteal != nil {
		h.OnTaskSteal(s.worker, owner, id)
	}
	if s.lockReductions(accesses) {
		defer s.unlockReductions(accesses)
	}
	if h := s.health; h != nil {
		h.setExec(int64(id))
		defer h.endExec()
	}
	s.prog.SetCurrent(id)
	if h := s.hooks; h != nil && h.OnTaskStart != nil {
		h.OnTaskStart(s.worker, id)
	}
	if !s.execBody(accesses, int64(id), b) {
		s.prog.SetCurrent(stf.NoTask)
		return // terminal failure: completion stays unpublished
	}
	if h := s.hooks; h != nil && h.OnTaskEnd != nil {
		h.OnTaskEnd(s.worker, id)
	}
	s.prog.SetCurrent(stf.NoTask)
	s.releaseStolen(accesses, int64(id))
	s.ws.Executed++
	s.prog.StoreExecuted(s.ws.Executed)
	s.ws.Stolen++
	s.prog.StoreStolen(s.ws.Stolen)
	if s.track {
		s.done = append(s.done, id)
	}
}

// releaseStolen publishes a stolen task's completion to the shared cells:
// the terminate_* protocol minus the local declare (see stealExec). The
// published values are the task's own — terminate_write stores the task's
// ID — so downstream waiters observe exactly what the owner would have
// published: the canonical order is preserved regardless of the executor.
func (s *submitter) releaseStolen(accesses []stf.Access, id int64) {
	for _, a := range accesses {
		sh := &s.shared[a.Data]
		switch {
		case a.Mode.Writes():
			sh.nbReadsSinceWrite.Store(0)
			sh.nbRedsSinceWrite.Store(0)
			sh.lastExecutedWrite.Store(id)
			sh.wake()
		case a.Mode.Commutes():
			sh.nbRedsSinceWrite.Add(1)
			sh.wake()
		default:
			sh.nbReadsSinceWrite.Add(1)
			sh.wake()
		}
	}
}

func (s *submitter) noteStealFailed() {
	s.ws.StealFailed++
	s.prog.StoreStealFailed(s.ws.StealFailed)
}

// stealDrain keeps stealing after this worker's replay finished, until
// every candidate it can see is claimed (each is then executed by its
// claimant, whose own replay or drain has not finished) or the run aborts.
// This is what lets a skewed mapping approach max(critical path, n/p): the
// owners of nothing sit in drain and eat the hot worker's backlog. The
// drain precedes a stream window's barrier arrival, so no steal ever
// crosses an epoch boundary.
func (s *submitter) stealDrain() {
	idle := 0
	for s.err == nil {
		if s.abort.raised() {
			return
		}
		if s.stealDrained() {
			return
		}
		if s.trySteal() {
			idle = 0
			continue
		}
		idle++
		if idle < 64 {
			runtime.Gosched()
		} else {
			time.Sleep(5 * time.Microsecond)
		}
	}
}

// stealDrained reports whether no stealable work remains in this worker's
// view: an empty ring, or every victim cursor past its victim's last
// unclaimed task.
func (s *submitter) stealDrained() bool {
	st := s.steal
	if st.meta == nil {
		return len(st.ring) == 0
	}
	for vi, v := range st.victims {
		list := st.meta.ByOwner[v]
		cur := st.cursors[vi]
		for cur < len(list) && s.claims.claimed(int64(list[cur])) {
			cur++
		}
		st.cursors[vi] = cur
		if cur < len(list) {
			return false
		}
	}
	return true
}
