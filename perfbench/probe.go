package main

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"time"

	"rio"
	"rio/internal/analyze"
	"rio/internal/server/ingest"
	"rio/internal/stf"
)

// The traced run ends with layer probes: every layer's public entry point
// is timed on the workload's own flows, so each per-layer metric is
// measured on every workload — by its timed loop where the workload runs
// the layer, by a probe here otherwise.

// probeSkip names the probes a workload's timed loop already covers.
type probeSkip uint8

const (
	skipCore probeSkip = 1 << iota
	skipCentralized
	skipStream
	skipServer
)

// probeInput describes a workload's flows to the probes.
type probeInput struct {
	graphs   []*stf.Graph
	mappings []rio.Mapping // per graph; nil means cyclic
	bodies   [][]byte      // per graph request body; nil means the bare graph document
	kernel   rio.Kernel
	workers  int
	prune    bool
	// record, when set, is the workload's own program recording (closure
	// workloads); otherwise the first graph's replay is recorded.
	record func() (*stf.Graph, error)
	// seqProg, when set, is the program the sequential probe runs;
	// otherwise each graph's replay.
	seqProg rio.Program
	skip    probeSkip
}

// probeReps is how many times each probe repeats a call; probes report the
// median.
const probeReps = 7

func (p *probeInput) mapping(i int) rio.Mapping {
	if p.mappings != nil && p.mappings[i] != nil {
		return p.mappings[i]
	}
	return rio.CyclicMapping(p.workers)
}

// probe times calls into the layers and records each call as a span.
type probe struct {
	res *result
	err error
}

// time calls f probeReps times, one span each, and returns the median
// duration. After a failure it does nothing.
func (p *probe) time(name string, f func() error) time.Duration {
	if p.err != nil {
		return 0
	}
	tr := p.res.tracer
	ds := make([]float64, 0, probeReps)
	for i := 0; i < probeReps; i++ {
		tr.beginOp()
		id := tr.open(name, -1)
		t0 := time.Now()
		err := f()
		ds = append(ds, float64(time.Since(t0)))
		tr.close(id)
		tr.endOp()
		if err != nil {
			p.err = fmt.Errorf("%s: %w", name, err)
			return 0
		}
	}
	return time.Duration(median(ds))
}

// probeLayers runs every probe the workload does not skip and sets the
// per-layer metrics it produces. A probe failure (or a rejected
// certificate) marks the run incorrect.
func probeLayers(res *result, c config, in probeInput) {
	p := &probe{res: res}
	m := res.layer
	var record, compile, certify, preflight, parse, hash, decode, seq time.Duration
	var tasks, seqTasks int
	var loadRatio float64
	for i, g := range in.graphs {
		mp := in.mapping(i)
		tasks += len(g.Tasks)
		var cp *rio.CompiledProgram
		compile += p.time("stf.Compile", func() (err error) {
			cp, err = rio.Compile(g, in.workers, mp, in.prune)
			return err
		})
		certify += p.time("verify.Verify", func() error {
			if rep := rio.Verify(g, cp, mp, nil); rep.Reject() {
				return fmt.Errorf("certificate of %s rejected: %w", g.Name, errOracle)
			}
			return nil
		})
		cfg := analyze.Config{Passes: serverPreflight, Workers: in.workers, Mapping: mp, InOrder: true}
		preflight += p.time("analyze.Graph", func() error { analyze.Graph(g, cfg); return nil })
		body := wireBody(g)
		if in.bodies != nil {
			body = in.bodies[i]
		}
		parse += p.time("ingest.Parse", func() error {
			_, err := ingest.Parse(bytes.NewReader(body), in.workers)
			return err
		})
		hash += p.time("ingest.Hash", func() error { _, err := ingest.Hash(g, nil); return err })
		decode += p.time("server.redecode", func() error { return redecode(body) })
		hist := rio.MappingHistogram(g, mp, in.workers)
		loadRatio += maxOverMean(hist)
		if in.seqProg == nil || i == 0 {
			prog := in.seqProg
			if prog == nil {
				prog = rio.Replay(g, in.kernel)
			}
			seqRT, err := rio.New(rio.Options{Model: rio.Sequential})
			if err != nil {
				p.err = err
				break
			}
			seq += p.time("sequential.Run", func() error { return seqRT.Run(g.NumData, prog) })
			seqTasks += len(g.Tasks)
		}
	}
	record = p.time("stf.Record", func() error {
		if in.record != nil {
			_, err := in.record()
			return err
		}
		_, err := rio.RecordProgram(in.graphs[0].NumData, rio.Replay(in.graphs[0], in.kernel))
		return err
	})
	n := float64(len(in.graphs))
	m.set("stf.record_us", us(record), "us")
	m.set("stf.compile_us", us(compile)/n, "us")
	m.set("stf.compile_ns_per_task", safeDiv(float64(compile), float64(tasks)), "ns")
	m.set("verify.certify_us", us(certify)/n, "us")
	m.set("analyze.preflight_us", us(preflight)/n, "us")
	m.set("ingest.parse_us", us(parse)/n, "us")
	m.set("ingest.hash_us", us(hash)/n, "us")
	m.set("server.redecode_us", us(decode)/n, "us")
	m.set("sched.load_max_over_mean", loadRatio/n, "ratio")
	m.set("sequential.ns_per_task", safeDiv(float64(seq), float64(seqTasks)), "ns")

	if in.skip&skipCore == 0 && p.err == nil {
		p.err = probeCore(m, in)
	}
	if in.skip&skipCentralized == 0 && p.err == nil {
		p.err = probeCentralized(m, in)
	}
	if in.skip&skipStream == 0 && p.err == nil {
		p.err = probeStream(p, m, in)
	}
	if in.skip&skipServer == 0 && p.err == nil {
		p.err = probeServer(res, c, in)
	}
	if p.err != nil {
		res.correct = false
		m.note("probe failed: %v", p.err)
	}
}

// wireBody is a graph's bare JSON document, the form POST /v1/flows takes.
func wireBody(g *stf.Graph) []byte {
	var b bytes.Buffer
	if err := g.WriteJSON(&b); err != nil {
		return nil
	}
	return b.Bytes()
}

func maxOverMean(hist []int) float64 {
	var sum, mx int
	for _, h := range hist {
		sum += h
		mx = max(mx, h)
	}
	return safeDiv(float64(mx)*float64(len(hist)), float64(sum))
}

// probeCore replays the flows through compiled replay on the in-order
// engine and reports its ledger.
func probeCore(m metricSet, in probeInput) error {
	var led coreLedger
	for i, g := range in.graphs {
		eng, err := rio.NewEngine(rio.Options{Workers: in.workers, Mapping: in.mapping(i), Prune: in.prune})
		if err != nil {
			return err
		}
		if _, err := eng.Precompile(g); err != nil {
			return err
		}
		for r := 0; r < probeReps; r++ {
			a0 := heapAllocs()
			t0 := time.Now()
			if err := eng.RunGraph(g, in.kernel); err != nil {
				return fmt.Errorf("core probe on %s: %w", g.Name, err)
			}
			led.add(eng.Stats(), eng.Progress(), time.Since(t0), heapAllocs()-a0)
		}
	}
	led.layer(m)
	return nil
}

// probeCentralized runs the flows on the centralized baseline.
func probeCentralized(m metricSet, in probeInput) error {
	rt, err := rio.New(rio.Options{Model: rio.Centralized, Workers: in.workers})
	if err != nil {
		return err
	}
	var led coreLedger
	for _, g := range in.graphs {
		prog := rio.Replay(g, in.kernel)
		for r := 0; r < probeReps; r++ {
			t0 := time.Now()
			if err := rt.Run(g.NumData, prog); err != nil {
				return fmt.Errorf("centralized probe on %s: %w", g.Name, err)
			}
			led.add(rt.Stats(), rt.Progress(), time.Since(t0), 0)
		}
	}
	centralizedLayer(m, &led, safeDiv(float64(led.tasks), led.wall.Seconds()))
	return nil
}

// probeStream streams the flows' tasks through a native session in
// 256-task windows, several passes so window shapes repeat, and times the
// Task call that fills each window (it flushes, blocking on the epoch
// barrier).
func probeStream(p *probe, m metricSet, in probeInput) error {
	numData := 0
	for _, g := range in.graphs {
		numData = max(numData, g.NumData)
	}
	eng, err := rio.NewEngine(rio.Options{Workers: in.workers})
	if err != nil {
		return err
	}
	st, err := eng.Stream(numData, rio.StreamOptions{MaxWindow: streamWindow, Kernel: in.kernel})
	if err != nil {
		return err
	}
	tr := p.res.tracer
	var flushes []float64
	flush := func(f func() error) error {
		tr.beginOp()
		id := tr.open("stream.Flush", -1)
		f0 := time.Now()
		err := f()
		flushes = append(flushes, us(time.Since(f0)))
		tr.close(id)
		tr.endOp()
		return err
	}
	t0 := time.Now()
	for pass := 0; pass < 4; pass++ {
		for _, g := range in.graphs {
			for i := range g.Tasks {
				t := &g.Tasks[i]
				task := func() error { st.Task(t.Kernel, t.I, t.J, t.K, t.Accesses...); return nil }
				if st.Pending() == streamWindow-1 {
					flush(task)
				} else {
					task()
				}
			}
			// Each graph ends its last window, so every pass cuts the
			// same windows and later passes hit the shape cache.
			if err := flush(st.Flush); err != nil {
				return fmt.Errorf("stream probe: %w", err)
			}
		}
	}
	if err := st.Close(); err != nil {
		return fmt.Errorf("stream probe: %w", err)
	}
	elapsed := time.Since(t0)
	hits, misses, _ := st.CacheStats()
	m.set("stream.flush_us_p50", median(flushes), "us")
	m.set("stream.windows_per_s", safeDiv(float64(st.Windows()), elapsed.Seconds()), "1/s")
	m.set("stream.shape_hit_ratio", safeDiv(float64(hits), float64(hits+misses)), "ratio")
	return nil
}

// probeServer registers the flows with an in-process rio-serve and sends a
// short sequential mix from one client: runs of each flow, one submission
// of a registered flow and one of a renamed (never-seen) copy per flow.
func probeServer(res *result, c config, in probeInput) error {
	flows := make([]*serveFlow, len(in.graphs))
	renamed := make([]*serveFlow, len(in.graphs))
	for i, g := range in.graphs {
		var err error
		if flows[i], err = newServeFlow(g, "noop"); err != nil {
			return err
		}
		cp := *g
		cp.Name = g.Name + "-probe-miss"
		if renamed[i], err = newServeFlow(&cp, "noop"); err != nil {
			return err
		}
	}
	l, err := startServer(serveConfig(2*len(flows) + 1))
	if err != nil {
		return err
	}
	defer l.close()
	for _, f := range flows {
		if err := l.register(f); err != nil {
			return err
		}
	}
	var on atomic.Bool
	on.Store(true)
	cl := newServeClient(l, newTracer(true, c.origin, 0), &on)
	for i, f := range flows {
		for r := 0; r < 4*probeReps; r++ {
			cl.do(classRun, f)
		}
		cl.do(classHit, f)
		cl.do(classMiss, renamed[i])
	}
	if cl.err != nil {
		return fmt.Errorf("server probe: %w", cl.err)
	}
	hits, misses, err := l.cacheStats()
	if err != nil {
		return err
	}
	floor, err := l.httpFloor(50)
	if err != nil {
		return err
	}
	miss, err := missCost(renamed)
	if err != nil {
		return err
	}
	res.layer.set("server.cache_hit_ratio", safeDiv(float64(hits), float64(hits+misses)), "ratio")
	serverLayer(res.layer, cl.tr, cl.classes, floor, miss)
	res.tracer.merge(cl.tr)
	return nil
}
