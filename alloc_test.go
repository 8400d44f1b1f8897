package rio_test

import (
	"testing"

	"rio"
	"rio/internal/graphs"
)

// TestReplayAllocsFlatInFlowLength is the allocation gate of the in-order
// engine's replay paths: a run may allocate a fixed per-run overhead
// (worker goroutines, synchronization state, progress table), but nothing
// per task. Each path runs tiled LU at 10 tiles (385 tasks) and at 20 tiles
// (2 870 tasks); the difference in allocations per run must stay within a
// few objects (the guard's checkpoint trail and slice growth), with
// stealing off and armed.
//
// Waits use WaitSpin: a parked wait allocates its data object's gate
// channel, and how often a wait parks depends on scheduling rather than on
// the flow, so the adaptive default would make the count nondeterministic.
func TestReplayAllocsFlatInFlowLength(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on synchronization events")
	}
	const maxExtra = 8
	noop := func(*rio.Task, rio.WorkerID) {}
	paths := []struct {
		name string
		// prepare returns a function that runs g once; the warm-up run
		// of testing.AllocsPerRun fills the engine's caches.
		prepare func(t *testing.T, g *rio.Graph, o rio.Options) func() error
	}{
		{"closure-submit", func(t *testing.T, g *rio.Graph, o rio.Options) func() error {
			rt, err := rio.New(o)
			if err != nil {
				t.Fatal(err)
			}
			bodies := make([]rio.TaskFunc, len(g.Tasks))
			for i := range bodies {
				bodies[i] = func() {}
			}
			prog := func(s rio.Submitter) {
				for i := range g.Tasks {
					s.Submit(bodies[i], g.Tasks[i].Accesses...)
				}
			}
			return func() error { return rt.Run(g.NumData, prog) }
		}},
		{"replay-submittask", func(t *testing.T, g *rio.Graph, o rio.Options) func() error {
			rt, err := rio.New(o)
			if err != nil {
				t.Fatal(err)
			}
			prog := rio.Replay(g, noop)
			return func() error { return rt.Run(g.NumData, prog) }
		}},
		{"compiled-rungraph", func(t *testing.T, g *rio.Graph, o rio.Options) func() error {
			e, err := rio.NewEngine(o)
			if err != nil {
				t.Fatal(err)
			}
			return func() error { return e.RunGraph(g, noop) }
		}},
	}
	for _, steal := range []*rio.StealPolicy{nil, {}} {
		for _, p := range paths {
			name := p.name + "/steal-nil"
			if steal != nil {
				name = p.name + "/steal-armed"
			}
			t.Run(name, func(t *testing.T) {
				o := rio.Options{Workers: 2, Steal: steal, Tuning: rio.TuningOptions{WaitPolicy: rio.WaitSpin}}
				allocs := func(nt int) float64 {
					run := p.prepare(t, graphs.LU(nt), o)
					var err error
					n := testing.AllocsPerRun(5, func() {
						if e := run(); e != nil && err == nil {
							err = e
						}
					})
					if err != nil {
						t.Fatal(err)
					}
					return n
				}
				small, large := allocs(10), allocs(20)
				t.Logf("allocs/run: LU(10) %.0f, LU(20) %.0f", small, large)
				if large-small > maxExtra {
					t.Errorf("LU(20) allocates %.0f more per run than LU(10) (limit %d): the replay path allocates per task", large-small, maxExtra)
				}
			})
		}
	}
}
