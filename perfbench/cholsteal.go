package main

import (
	"time"

	"rio"
	"rio/internal/graphs"
	"rio/internal/stf"
)

// cholSteal is compiled replay from a warm cache with work stealing armed:
// tiled Cholesky (24×24 tiles, 2 600 tasks over 576 data) under the
// owner-computes mapping of a 2-worker grid, which splits the task count
// evenly but not the work on the critical path. SYRK/GEMM bodies are 4×
// heavier than the panel tasks.
type cholSteal struct {
	g          *stf.Graph
	m          rio.Mapping
	init, vals []uint64
	want       uint64
	kernel     rio.Kernel
	eng        *rio.Engine
	ledger     coreLedger
}

const cholTiles = 24

func newCholSteal(seed int64) (*cholSteal, error) {
	g := graphs.Cholesky(cholTiles)
	w := &cholSteal{g: g, init: initData(g.NumData, seed), vals: make([]uint64, g.NumData)}
	w.m = rio.OwnerComputesMapping(g, rio.NewGrid2D(2))
	w.kernel = checksumKernel(w.vals, choleskyRounds)
	var err error
	if w.want, err = sequentialChecksum(g.NumData, rio.Replay(g, w.kernel), w.vals, w.init); err != nil {
		return nil, err
	}
	if w.eng, err = rio.NewEngine(rio.Options{Workers: 2, Mapping: w.m, Steal: &rio.StealPolicy{}}); err != nil {
		return nil, err
	}
	if _, err = w.eng.Precompile(g); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *cholSteal) op(tr *tracer) (int64, error) {
	copy(w.vals, w.init)
	a0 := heapAllocs()
	id := tr.open("rio.Engine.RunGraph", 0)
	t0 := time.Now()
	err := w.eng.RunGraph(w.g, w.kernel)
	wall := time.Since(t0)
	tr.close(id)
	if err != nil {
		return 0, err
	}
	if tr.on {
		w.ledger.add(w.eng.Stats(), w.eng.Progress(), wall, heapAllocs()-a0)
	}
	id = tr.open("bench.oracle", 0)
	err = checkVals(w.vals, w.want, "rio compiled+steal")
	tr.close(id)
	return int64(len(w.g.Tasks)), err
}

func runCholSteal(c config) (*result, error) {
	res := newResult(c)
	w, setupS, err := repeatSetup(func() (*cholSteal, error) { return newCholSteal(c.seed) }, func(*cholSteal) {})
	if err != nil {
		return nil, err
	}
	op := libOp{"op.rio-compiled-steal", w.op}
	warm := closedLoop(c.warmup, newTracer(false, c.origin, 0), false, op)
	w.ledger = coreLedger{}
	lr := closedLoop(c.seconds, res.tracer, c.traced, op)
	res.correct = warm.correct && lr.correct
	if lr.err != nil {
		res.e2e.note("first failure: %v", lr.err)
	}
	res.tally = lr.kinds[0].tally

	res.e2e.set("setup_s", setupS, "s")
	lr.kinds[0].e2e(res.e2e)
	res.e2e.set("rss_peak_mb", peakRSSMB(), "MB")
	hits, misses, _ := w.eng.CacheStats()
	res.e2e.note("compiled cache: %d hits, %d misses", hits, misses)

	if c.traced {
		w.ledger.layer(res.layer)
		res.layer.set("trace.overhead_ratio", lr.kinds[0].overheadRatio(), "ratio")
		probeLayers(res, c, probeInput{
			graphs:   []*stf.Graph{w.g},
			mappings: []rio.Mapping{w.m},
			kernel:   w.kernel,
			workers:  2,
			skip:     skipCore,
		})
	}
	return res, nil
}
