package main

import (
	"errors"
	"fmt"
	"runtime/metrics"
	"time"

	"rio"
	"rio/internal/trace"
)

// sliceLen is the length of one throughput slice of a timed phase.
const sliceLen = 200 * time.Millisecond

// libOp is one operation of a library workload. It records its spans on tr
// and returns the number of tasks it completed.
type libOp struct {
	name string
	run  func(tr *tracer) (tasks int64, err error)
}

// kindResult is what the closed loop measured for one kind of operation.
type kindResult struct {
	durs   []time.Duration // every operation of the measured phase
	traced []time.Duration // operations in traced slices (traced runs)
	plain  []time.Duration // operations in untraced slices (traced runs)
	slices []slice
	tally  tally
}

// loopResult is the outcome of one closed-loop phase.
type loopResult struct {
	kinds   []kindResult
	correct bool
	err     error // first failure or oracle mismatch, for the log
}

// closedLoop calls ops round-robin, one at a time, for d: each call starts
// when the previous one returned. Every call is timed and bracketed by
// process-CPU readings, and calls are grouped into sliceLen slices. With
// alternate set (the traced run), tracing is switched on for even slices
// and off for odd ones, so one run yields both the per-layer spans and the
// tracing overhead.
func closedLoop(d time.Duration, tr *tracer, alternate bool, ops ...libOp) loopResult {
	res := loopResult{kinds: make([]kindResult, len(ops)), correct: true}
	cur := make([]slice, len(ops))
	start := time.Now()
	sliceEnd := start.Add(sliceLen)
	sliceIdx := 0
	if alternate {
		tr.on = true
	}
	for i := 0; ; i++ {
		if now := time.Now(); now.After(sliceEnd) {
			for k := range ops {
				res.kinds[k].slices = append(res.kinds[k].slices, cur[k])
				cur[k] = slice{}
			}
			if now.Sub(start) >= d {
				break
			}
			sliceIdx++
			sliceEnd = now.Add(sliceLen)
			if alternate {
				tr.on = sliceIdx%2 == 0
			}
		}
		k := i % len(ops)
		op := ops[k]
		tr.beginOp()
		root := tr.open(op.name, -1)
		c0, t0 := cpuTime(), time.Now()
		tasks, err := op.run(tr)
		dur := time.Since(t0)
		cpu := cpuTime() - c0
		tr.close(root)
		tr.endOp()

		kr := &res.kinds[k]
		if errors.Is(err, errOracle) {
			res.correct = false
		}
		if kr.tally.add(err != nil) {
			if res.err == nil {
				res.err = fmt.Errorf("%s: %w", op.name, err)
			}
			continue
		}
		kr.durs = append(kr.durs, dur)
		if alternate {
			if tr.on {
				kr.traced = append(kr.traced, dur)
			} else {
				kr.plain = append(kr.plain, dur)
			}
		}
		s := &cur[k]
		s.ops++
		s.tasks += tasks
		s.busy += dur
		s.cpu += cpu
	}
	if alternate {
		tr.on = true
	}
	return res
}

// overheadRatio is the tracing overhead of one kind: the median operation
// in traced slices over the median in untraced slices, minus one.
func (k *kindResult) overheadRatio() float64 {
	if len(k.traced) == 0 || len(k.plain) == 0 {
		return 0
	}
	return median(durationsMS(k.traced))/median(durationsMS(k.plain)) - 1
}

// e2e reduces one kind's measurements to the end-to-end metrics.
func (k *kindResult) e2e(m metricSet) {
	opsPerS, tasksPerS, cpuNs := sliceRates(k.slices)
	lat := durationsMS(k.durs)
	m.set("tasks_per_s", tasksPerS, "1/s")
	m.set("op_p50_ms", percentile(lat, 50), "ms")
	m.set("cpu_ns_per_task", cpuNs, "ns")
	m.note("operations: %.1f per second (median over slices)", opsPerS)
	var rates []float64
	for _, s := range k.slices {
		if s.busy > 0 {
			rates = append(rates, float64(s.tasks)/s.busy.Seconds())
		}
	}
	m.note("slices: n=%d, tasks/s p10 %.0f, p25 %.0f, p50 %.0f, p75 %.0f, p90 %.0f", len(rates),
		percentile(rates, 10), percentile(rates, 25), percentile(rates, 50), percentile(rates, 75), percentile(rates, 90))
	if p, ok := tailPercentile(len(lat)); ok {
		m.note("latency: n=%d ops, p50 %.4f ms, p%g %.4f ms (highest percentile with >=10 samples beyond it)",
			len(lat), percentile(lat, 50), p, percentile(lat, p))
	}
}

// coreLedger accumulates the in-order engine's own accounting over the
// traced runs of one runtime: Stats().Cumulative() gives τ_t / τ_i / τ_r
// (§2.3), Progress() the declare, wait and steal counters, and the
// benchmark's external clock the wall time they must add up to.
type coreLedger struct {
	runs, tasks, declared, waits int64
	task, idle, rt, wall         time.Duration
	workers                      int
	hist                         [trace.NumWaitBuckets]int64
	stolen, stealFailed          int64
	allocs                       uint64
	durs                         []time.Duration
}

// add records one run: its stats, progress snapshot, externally measured
// wall time and the heap allocations counted around it.
func (c *coreLedger) add(st *rio.Stats, p rio.Progress, wall time.Duration, allocs uint64) {
	task, idle, rt := st.Cumulative()
	c.runs++
	c.tasks += st.Executed()
	c.task += task
	c.idle += idle
	c.rt += rt
	c.wall += wall
	c.workers = st.NumWorkers()
	c.stolen += st.Stolen()
	c.stealFailed += st.StealFailed()
	c.allocs += allocs
	c.durs = append(c.durs, wall)
	for _, w := range p.Workers {
		c.declared += w.Declared
		for b, n := range w.WaitHist {
			c.hist[b] += n
			c.waits += n
		}
	}
}

// residual is the ledger check: (τ_t + τ_i + τ_r) ÷ (workers × wall) − 1,
// with wall timed by the benchmark around each call.
func (c *coreLedger) residual() float64 {
	return safeDiv(float64(c.task+c.idle+c.rt), float64(c.workers)*float64(c.wall)) - 1
}

// waitBucketNames label the Progress wait histogram buckets
// (trace.WaitBucketBounds).
var waitBucketNames = [trace.NumWaitBuckets]string{"lt_1us", "lt_10us", "lt_100us", "lt_1ms", "lt_10ms", "lt_100ms", "lt_1s", "ge_1s"}

// layer reports the core.* per-layer metrics.
func (c *coreLedger) layer(m metricSet) {
	n := float64(c.tasks)
	m.set("core.task_ns_per_task", safeDiv(float64(c.task), n), "ns")
	m.set("core.idle_ns_per_task", safeDiv(float64(c.idle), n), "ns")
	m.set("core.runtime_ns_per_task", safeDiv(float64(c.rt), n), "ns")
	m.set("core.ledger_residual_ratio", c.residual(), "ratio")
	m.set("core.declared_per_task", safeDiv(float64(c.declared), n), "count")
	m.set("core.waits_per_task", safeDiv(float64(c.waits), n), "count")
	for b, name := range waitBucketNames {
		m.set("core.wait_hist."+name, safeDiv(float64(c.hist[b]), float64(c.runs)), "count")
	}
	m.set("core.allocs_per_run", safeDiv(float64(c.allocs), float64(c.runs)), "count")
	m.set("core.run_p99_ms", percentile(durationsMS(c.durs), 99), "ms")
	m.set("core.stolen_per_run", safeDiv(float64(c.stolen), float64(c.runs)), "count")
	m.set("core.steal_success_ratio", safeDiv(float64(c.stolen), float64(c.stolen+c.stealFailed)), "ratio")
	if r := c.residual(); r > 0.10 || r < -0.10 {
		m.note("FLAG core ledger: residual %.3f exceeds ±10%% over %d runs", r, c.runs)
	}
}

// heapAllocs reads the cumulative count of heap allocations without
// stopping the world.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}
