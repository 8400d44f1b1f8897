package rio_test

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"rio"
)

// TestNewReturnsStreamerForAllModels pins down what New returns for every
// model and every combination of Timeout and Preflight: each runtime is a
// Streamer, only InOrder is a GraphRunner, stream windows skip preflight
// but honour Timeout, and preflight rejects a defective program (or, on
// InOrder, graph) before any body runs.
func TestNewReturnsStreamerForAllModels(t *testing.T) {
	const timeout = 60 * time.Millisecond
	for _, m := range []rio.Model{rio.InOrder, rio.Centralized, rio.CentralizedWS, rio.CentralizedPrio, rio.Sequential} {
		for _, o := range []rio.Options{
			{Model: m, Workers: 2},
			{Model: m, Workers: 2, Timeout: timeout},
			{Model: m, Workers: 2, Preflight: rio.PreflightAccess},
			{Model: m, Workers: 2, Timeout: timeout, Preflight: rio.PreflightAccess},
		} {
			t.Run(fmt.Sprintf("%v/timeout=%v/preflight=%v", m, o.Timeout, o.Preflight), func(t *testing.T) {
				t.Parallel()
				rt, err := rio.New(o)
				if err != nil {
					t.Fatal(err)
				}
				st, ok := rt.(rio.Streamer)
				if !ok {
					t.Fatal("no Streamer")
				}
				gr, isGR := rt.(rio.GraphRunner)
				if isGR != (m == rio.InOrder) {
					t.Fatalf("GraphRunner = %v, want %v", isGR, m == rio.InOrder)
				}

				// A window that reads a datum before this window's write: as
				// a program, preflight would reject it (uninitialized read);
				// in a stream the datum carries an earlier window's value.
				s, err := st.Stream(1, rio.StreamOptions{})
				if err != nil {
					t.Fatal(err)
				}
				var n atomic.Int64
				s.Submit(func() { n.Add(1) }, rio.Read(0))
				s.Submit(func() { n.Add(1) }, rio.Write(0))
				if err := s.Close(); err != nil {
					t.Fatalf("read-before-write window: %v", err)
				}
				if n.Load() != 2 {
					t.Fatalf("stream ran %d tasks, want 2", n.Load())
				}
				// Only the in-order engine streams natively (its shape cache
				// sees the window); the others take the fallback.
				if _, misses, _ := s.CacheStats(); (misses == 1) != (m == rio.InOrder) {
					t.Errorf("shape-cache misses = %d on %v", misses, m)
				}

				if o.Timeout > 0 {
					s, err := st.Stream(1, rio.StreamOptions{})
					if err != nil {
						t.Fatal(err)
					}
					s.Submit(func() { time.Sleep(5 * o.Timeout) }, rio.RW(0))
					s.Submit(func() {}, rio.RW(0))
					err = s.Close()
					if m == rio.InOrder && err == nil {
						t.Error("window longer than Timeout succeeded")
					}
					if m != rio.InOrder && !errors.Is(err, context.DeadlineExceeded) {
						t.Errorf("fallback window longer than Timeout: %v, want DeadlineExceeded", err)
					}
				}

				// The same read-before-write flow as a program: preflight
				// rejects it before any body runs.
				n.Store(0)
				bad := func(s rio.Submitter) {
					s.Submit(func() { n.Add(1) }, rio.Read(0))
					s.Submit(func() { n.Add(1) }, rio.Write(0))
				}
				err = rt.Run(1, bad)
				var pf *rio.PreflightError
				if got := errors.As(err, &pf); got != (o.Preflight != 0) {
					t.Fatalf("Run(read-before-write) = %v, preflight rejection %v", err, o.Preflight != 0)
				}
				if o.Preflight != 0 && n.Load() != 0 {
					t.Fatal("a task body ran despite the preflight rejection")
				}
				if !isGR {
					return
				}
				g, err := rio.RecordProgram(1, bad)
				if err != nil {
					t.Fatal(err)
				}
				n.Store(0)
				err = gr.RunGraph(g, func(*rio.Task, rio.WorkerID) { n.Add(1) })
				if got := errors.As(err, &pf); got != (o.Preflight != 0) {
					t.Fatalf("RunGraph(read-before-write) = %v, preflight rejection %v", err, o.Preflight != 0)
				}
				want := int64(2)
				if o.Preflight != 0 {
					want = 0
				}
				if n.Load() != want {
					t.Fatalf("RunGraph ran %d bodies, want %d", n.Load(), want)
				}
			})
		}
	}
}

// TestWrappedGraphRunnerExecutes: RunGraph on an InOrder runtime wrapped in
// Timeout and Preflight runs a sound graph in full and rejects a defective
// one (read before first write) before any body runs.
func TestWrappedGraphRunnerExecutes(t *testing.T) {
	rt, err := rio.New(rio.Options{Workers: 2, Timeout: time.Minute, Preflight: rio.PreflightAccess})
	if err != nil {
		t.Fatal(err)
	}
	gr, ok := rt.(rio.GraphRunner)
	if !ok {
		t.Fatal("InOrder runtime with Timeout and Preflight is no GraphRunner")
	}
	g, err := rio.RecordProgram(2, func(s rio.Submitter) {
		s.Submit(func() {}, rio.Write(0))
		s.Submit(func() {}, rio.Read(0), rio.Write(1))
	})
	if err != nil {
		t.Fatal(err)
	}
	var n atomic.Int64
	k := func(*rio.Task, rio.WorkerID) { n.Add(1) }
	if err := gr.RunGraph(g, k); err != nil {
		t.Fatalf("RunGraph: %v", err)
	}
	if n.Load() != 2 {
		t.Fatalf("RunGraph executed %d tasks, want 2", n.Load())
	}

	bad, err := rio.RecordProgram(1, func(s rio.Submitter) {
		s.Submit(func() {}, rio.Read(0))
		s.Submit(func() {}, rio.Write(0))
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Store(0)
	var pf *rio.PreflightError
	if err := gr.RunGraph(bad, k); !errors.As(err, &pf) {
		t.Fatalf("RunGraph(bad) = %v, want PreflightError", err)
	}
	if n.Load() != 0 {
		t.Fatal("rejected graph still executed tasks")
	}
}

// TestWrappedStreamerExecutes: Stream on an InOrder runtime wrapped in
// Timeout and Preflight reaches the native session — the first window
// misses the shape cache, a second window of the same shape hits it — and
// runs read-before-write windows, which preflight does not apply to.
func TestWrappedStreamerExecutes(t *testing.T) {
	rt, err := rio.New(rio.Options{Workers: 2, Timeout: time.Minute, Preflight: rio.PreflightAccess})
	if err != nil {
		t.Fatal(err)
	}
	st, ok := rt.(rio.Streamer)
	if !ok {
		t.Fatal("InOrder runtime with Timeout and Preflight is no Streamer")
	}
	s, err := st.Stream(1, rio.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var n atomic.Int64
	for w := 0; w < 2; w++ {
		s.Submit(func() { n.Add(1) }, rio.Read(0))
		s.Submit(func() { n.Add(1) }, rio.Write(0))
		if err := s.Flush(); err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 4 {
		t.Fatalf("streamed %d tasks, want 4", n.Load())
	}
	if hits, misses, _ := s.CacheStats(); hits != 1 || misses != 1 {
		t.Errorf("shape cache hits/misses = %d/%d, want 1/1 (native session)", hits, misses)
	}
}
