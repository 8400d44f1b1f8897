package main

import (
	"fmt"
	"math/rand"

	"rio"
	"rio/internal/stf"
)

// streamPipe drives one Stream session with an unbounded flow of 256-task
// windows over 64 data. Every window is 32 dependency chains of 8 tasks;
// which data each chain uses and how the chains interleave come from a
// small seeded set of window shapes, so the compiled-shape cache is hit
// after the first window of each shape.
type streamPipe struct {
	shapes     [][]chainTask
	rng        *rand.Rand
	init, vals []uint64
	eng        *rio.Engine
	st         *rio.Stream
	winShapes  []uint8 // the shape of every window submitted, for the oracle
}

// chainTask is one task of a window shape: it updates datum w from datum r.
type chainTask struct{ w, r rio.DataID }

const (
	streamData    = 64
	streamWindow  = 256
	streamShapes  = 8
	streamChains  = 32
	streamDepth   = streamWindow / streamChains
	streamWorkers = 2
)

// makeShapes draws the seeded window shapes: a permutation pairs the data
// into chains, and a random merge of the chains fixes the submission order
// (each chain's own order is kept, so every chain is a dependency chain
// streamDepth deep).
func makeShapes(rng *rand.Rand) [][]chainTask {
	shapes := make([][]chainTask, streamShapes)
	for s := range shapes {
		perm := rng.Perm(streamData)
		order := make([]int, 0, streamWindow)
		for c := 0; c < streamChains; c++ {
			for k := 0; k < streamDepth; k++ {
				order = append(order, c)
			}
		}
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		next := make([]int, streamChains)
		tasks := make([]chainTask, 0, streamWindow)
		for _, c := range order {
			a, b := rio.DataID(perm[2*c]), rio.DataID(perm[2*c+1])
			if next[c]%2 == 1 {
				a, b = b, a
			}
			next[c]++
			tasks = append(tasks, chainTask{w: a, r: b})
		}
		shapes[s] = tasks
	}
	return shapes
}

// windowTag distinguishes the bodies of successive windows.
func windowTag(win int) uint64 { return uint64(win+1) * 0x9e3779b97f4a7c15 }

func newStreamPipe(seed int64) (*streamPipe, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &streamPipe{rng: rng, shapes: makeShapes(rng), init: initData(streamData, seed)}
	w.vals = append([]uint64(nil), w.init...)
	var err error
	if w.eng, err = rio.NewEngine(rio.Options{Workers: streamWorkers}); err != nil {
		return nil, err
	}
	if w.st, err = w.eng.Stream(streamData, rio.StreamOptions{MaxWindow: streamWindow}); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *streamPipe) close() { w.st.Close() }

// window submits one window. Its last Submit reaches MaxWindow and flushes:
// that call is timed as the stream.Flush span (it blocks on the epoch
// barrier of the previous window).
func (w *streamPipe) window(tr *tracer) (int64, error) {
	win := len(w.winShapes)
	sid := uint8(w.rng.Intn(streamShapes))
	w.winShapes = append(w.winShapes, sid)
	tag := windowTag(win)
	vals := w.vals
	tasks := w.shapes[sid]
	id := tr.open("stream.Submit", 0)
	for i, t := range tasks {
		a, b := t.w, t.r
		body := func() { vals[a] = mix(vals[a], vals[b]^tag, lightRounds) }
		if i == len(tasks)-1 {
			tr.close(id)
			id = tr.open("stream.Flush", 0)
		}
		w.st.Submit(body, rio.RW(a), rio.Read(b))
	}
	tr.close(id)
	if err := w.st.Err(); err != nil {
		return 0, err
	}
	return streamWindow, nil
}

// check drains the stream and compares the data vector with a sequential
// replay of every window submitted.
func (w *streamPipe) check() error {
	if err := w.st.Drain(); err != nil {
		return err
	}
	ref := append([]uint64(nil), w.init...)
	for win, sid := range w.winShapes {
		tag := windowTag(win)
		for _, t := range w.shapes[sid] {
			ref[t.w] = mix(ref[t.w], ref[t.r]^tag, lightRounds)
		}
	}
	for i := range ref {
		if ref[i] != w.vals[i] {
			return fmt.Errorf("stream datum %d after %d windows: %#x, sequential replay %#x: %w", i, len(w.winShapes), w.vals[i], ref[i], errOracle)
		}
	}
	return nil
}

// shapeGraph records one window shape as a graph, for the layer probes.
// One initializing task per datum comes first: a window reads data earlier
// windows wrote, which a stand-alone graph would present as reads of
// never-written data (a preflight warning).
func (w *streamPipe) shapeGraph(sid int) *stf.Graph {
	g := stf.NewGraph(fmt.Sprintf("stream-shape-%d", sid), streamData)
	for d := 0; d < streamData; d++ {
		g.Add(0, d, d, 0, stf.RW(stf.DataID(d)))
	}
	for _, t := range w.shapes[sid] {
		g.Add(0, int(t.w), int(t.r), 0, stf.RW(t.w), stf.R(t.r))
	}
	return g
}

func runStreamPipe(c config) (*result, error) {
	res := newResult(c)
	w, setupS, err := repeatSetup(func() (*streamPipe, error) { return newStreamPipe(c.seed) }, (*streamPipe).close)
	if err != nil {
		return nil, err
	}
	defer w.close()
	op := libOp{"op.window", w.window}
	warm := closedLoop(c.warmup, newTracer(false, c.origin, 0), false, op)
	hits0, misses0, _ := w.st.CacheStats()
	windows0 := len(w.winShapes)
	lr := closedLoop(c.seconds, res.tracer, c.traced, op)
	res.correct = warm.correct && lr.correct
	res.tally = lr.kinds[0].tally
	if err := w.check(); err != nil {
		res.e2e.note("stream check: %v", err)
		res.correct = false
	}
	if lr.err != nil {
		res.e2e.note("first failure: %v", lr.err)
	}

	res.e2e.set("setup_s", setupS, "s")
	lr.kinds[0].e2e(res.e2e)
	res.e2e.set("rss_peak_mb", peakRSSMB(), "MB")
	hits, misses, entries := w.st.CacheStats()
	res.e2e.note("shape cache: %d hits, %d misses, %d entries over %d windows", hits, misses, entries, len(w.winShapes))

	if c.traced {
		k := &lr.kinds[0]
		res.layer.set("trace.overhead_ratio", k.overheadRatio(), "ratio")
		res.layer.set("stream.flush_us_p50", res.tracer.p50US("stream.Flush"), "us")
		windows, _, _ := sliceRates(k.slices)
		res.layer.set("stream.windows_per_s", windows, "1/s")
		timedHits, timedMisses := hits-hits0, misses-misses0
		res.layer.set("stream.shape_hit_ratio", safeDiv(float64(timedHits), float64(timedHits+timedMisses)), "ratio")
		res.layer.note("stream: %d windows in the timed phase", len(w.winShapes)-windows0)
		streamProgress(res.layer, w.eng.Progress(), int64(len(w.winShapes))*streamWindow)

		graphs := make([]*stf.Graph, streamShapes)
		for s := range graphs {
			graphs[s] = w.shapeGraph(s)
		}
		probeLayers(res, c, probeInput{
			graphs:  graphs,
			kernel:  checksumKernel(make([]uint64, streamData), lightTask),
			workers: streamWorkers,
			skip:    skipStream,
		})
	}
	return res, nil
}

// streamProgress reports the declare and wait counters a session's
// Progress accumulates over all its windows.
func streamProgress(m metricSet, p rio.Progress, tasks int64) {
	var declared, waits int64
	for _, wp := range p.Workers {
		declared += wp.Declared
		for _, n := range wp.WaitHist {
			waits += n
		}
	}
	m.note("stream session: %.3f declared/task, %.3f waits/task over %d tasks",
		safeDiv(float64(declared), float64(tasks)), safeDiv(float64(waits), float64(tasks)), tasks)
}
