package main

import (
	"fmt"
	"time"

	"rio"
	"rio/internal/graphs"
	"rio/internal/stf"
)

// luFine is the paper's Exp 4 / Fig 8 regime: tiled LU (20×20 tiles, 2 870
// fine tasks over 400 data) submitted through the closure path, run by
// the in-order engine and, interleaved run by run on identical input, by
// the centralized baseline.
type luFine struct {
	g          *stf.Graph
	init, vals []uint64
	want       uint64
	prog       rio.Program
	rio, cent  rio.Runtime
	ledger     coreLedger
	centLedger coreLedger
}

const luTiles = 20

func newLUFine(seed int64) (*luFine, error) {
	g := graphs.LU(luTiles)
	w := &luFine{g: g, init: initData(g.NumData, seed), vals: make([]uint64, g.NumData)}
	w.prog = closureProgram(g, w.vals, lightTask)
	rec, err := rio.RecordProgram(g.NumData, w.prog)
	if err != nil {
		return nil, err
	}
	if len(rec.Tasks) != len(g.Tasks) {
		return nil, fmt.Errorf("recorded %d tasks, want %d", len(rec.Tasks), len(g.Tasks))
	}
	if w.want, err = sequentialChecksum(g.NumData, w.prog, w.vals, w.init); err != nil {
		return nil, err
	}
	if w.rio, err = rio.New(rio.Options{Workers: 2}); err != nil {
		return nil, err
	}
	if w.cent, err = rio.New(rio.Options{Model: rio.Centralized, Workers: 2}); err != nil {
		return nil, err
	}
	return w, nil
}

// op runs the flow once on rt from the initial data and checks the result.
func (w *luFine) op(rt rio.Runtime, span string, ledger *coreLedger) func(*tracer) (int64, error) {
	return func(tr *tracer) (int64, error) {
		copy(w.vals, w.init)
		a0 := heapAllocs()
		id := tr.open(span, 0)
		t0 := time.Now()
		err := rt.Run(w.g.NumData, w.prog)
		wall := time.Since(t0)
		tr.close(id)
		if err != nil {
			return 0, err
		}
		if tr.on {
			ledger.add(rt.Stats(), rt.Progress(), wall, heapAllocs()-a0)
		}
		id = tr.open("bench.oracle", 0)
		err = checkVals(w.vals, w.want, rt.Name())
		tr.close(id)
		return int64(len(w.g.Tasks)), err
	}
}

func runLUFine(c config) (*result, error) {
	res := newResult(c)
	w, setupS, err := repeatSetup(func() (*luFine, error) { return newLUFine(c.seed) }, func(*luFine) {})
	if err != nil {
		return nil, err
	}
	ops := []libOp{
		{"op.rio", w.op(w.rio, "rio.Runtime.Run", &w.ledger)},
		{"op.centralized", w.op(w.cent, "centralized.Runtime.Run", &w.centLedger)},
	}
	warm := closedLoop(c.warmup, newTracer(false, c.origin, 0), false, ops...)
	w.ledger, w.centLedger = coreLedger{}, coreLedger{}
	lr := closedLoop(c.seconds, res.tracer, c.traced, ops...)
	res.correct = warm.correct && lr.correct
	if lr.err != nil {
		res.e2e.note("first failure: %v", lr.err)
	}
	for _, k := range lr.kinds {
		res.tally.merge(k.tally)
	}

	res.e2e.set("setup_s", setupS, "s")
	lr.kinds[0].e2e(res.e2e)
	res.e2e.set("rss_peak_mb", peakRSSMB(), "MB")
	_, centTasks, _ := sliceRates(lr.kinds[1].slices)
	res.e2e.note("centralized_tasks_per_s %.1f (centralized-fifo, 2 workers, same flow and seed)", centTasks)

	if c.traced {
		w.ledger.layer(res.layer)
		centralizedLayer(res.layer, &w.centLedger, centTasks)
		res.layer.set("trace.overhead_ratio", lr.kinds[0].overheadRatio(), "ratio")
		probeLayers(res, c, probeInput{
			graphs:  []*stf.Graph{w.g},
			kernel:  checksumKernel(w.vals, lightTask),
			workers: 2,
			record:  func() (*stf.Graph, error) { return rio.RecordProgram(w.g.NumData, w.prog) },
			seqProg: w.prog,
			skip:    skipCore | skipCentralized,
		})
	}
	return res, nil
}

// centralizedLayer reports the centralized.* per-layer metrics.
func centralizedLayer(m metricSet, c *coreLedger, tasksPerS float64) {
	n := float64(c.tasks)
	m.set("centralized.runtime_ns_per_task", safeDiv(float64(c.rt), n), "ns")
	m.set("centralized.idle_ns_per_task", safeDiv(float64(c.idle), n), "ns")
	m.set("centralized.tasks_per_s", tasksPerS, "1/s")
}
