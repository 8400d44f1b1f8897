package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rio"
	"rio/internal/server/ingest"
	"rio/internal/stf"
)

// runResponse is the part of an execution response the oracle checks.
type runResponse struct {
	Flow     string `json:"flow"`
	Executed int64  `json:"executed"`
	WallNS   int64  `json:"wall_ns"`
	QueueNS  int64  `json:"queue_ns"`
}

// classStats accumulates one request class on one client (traced requests
// only, except the tally).
type classStats struct {
	tally               tally
	lat                 []float64 // µs
	latSum, queue, wall time.Duration
	outside             []float64 // µs: latency − queue − engine
}

// serveClient is one closed-loop client connection's state. Only its own
// goroutine touches it while a phase runs.
type serveClient struct {
	l       *liveServer
	tr      *tracer
	tracing *atomic.Bool // nil: never trace
	classes [numClasses]classStats
	lat     []time.Duration // every successful request
	traced  []time.Duration // successful requests in traced slices
	plain   []time.Duration // successful requests in untraced slices
	correct bool
	err     error
	okExec  int64 // 200 executions: one compiled-cache hit each
	okMiss  int64 // 200 submit_miss requests: one cache miss each
}

func newServeClient(l *liveServer, tr *tracer, tracing *atomic.Bool) *serveClient {
	return &serveClient{l: l, tr: tr, tracing: tracing, correct: true}
}

// do sends one request of class for flow f and checks the response.
func (c *serveClient) do(class int, f *serveFlow) (tasks int64, ok bool) {
	c.tr.on = c.tracing != nil && c.tracing.Load()
	path, body := "/v1/flows/"+f.id+"/run", f.run
	if class != classRun {
		path, body = "/v1/run", f.envelope
	}
	c.tr.beginOp()
	root := c.tr.open("client."+classNames[class], -1)
	start := c.tr.now()
	t0 := time.Now()
	var rr runResponse
	status, err := c.l.post(path, body, &rr)
	lat := time.Since(t0)
	cs := &c.classes[class]
	if cs.tally.add(requestFailed(status, err)) {
		c.tr.close(root)
		c.tr.endOp()
		if c.err == nil {
			c.err = fmt.Errorf("%s %s: status %d (timeout %v): %v", classNames[class], f.g.Name, status, isTimeout(err), err)
		}
		return 0, false
	}
	// The server's queue and engine intervals lie inside the request; their
	// durations are measured, their placement is not, so they are centred
	// in the request span (self time only needs them disjoint and inside).
	qStart := start + (int64(lat)-rr.QueueNS-rr.WallNS)/2
	c.tr.add("server.queue", root, qStart, qStart+rr.QueueNS)
	c.tr.add("server.engine", root, qStart+rr.QueueNS, qStart+rr.QueueNS+rr.WallNS)
	c.tr.close(root)
	c.tr.endOp()
	if rr.Flow != f.id || rr.Executed != int64(len(f.g.Tasks)) {
		c.correct = false
		if c.err == nil {
			c.err = fmt.Errorf("%s %s: response flow %s executed %d, want %s and %d: %w",
				classNames[class], f.g.Name, rr.Flow, rr.Executed, f.id, len(f.g.Tasks), errOracle)
		}
	}
	c.okExec++
	if class == classMiss {
		c.okMiss++
	}
	c.lat = append(c.lat, lat)
	if c.tracing != nil {
		if c.tr.on {
			c.traced = append(c.traced, lat)
		} else {
			c.plain = append(c.plain, lat)
		}
	}
	if c.tr.on {
		cs.lat = append(cs.lat, us(lat))
		cs.latSum += lat
		cs.queue += time.Duration(rr.QueueNS)
		cs.wall += time.Duration(rr.WallNS)
		cs.outside = append(cs.outside, us(lat-time.Duration(rr.QueueNS+rr.WallNS)))
	}
	return rr.Executed, true
}

// serveMix is rio-serve under a seeded request mix from two closed-loop
// client connections.
type serveMix struct {
	seed     int64
	l        *liveServer
	pool     []*serveFlow
	nextMiss atomic.Int64
}

// serveMaxFlows sizes the flow table so it never fills: the server has no
// flow eviction, and a full table would answer 507. It holds the 12 pool
// flows plus the never-seen flows (1 request in 256) of a 60 s run and its
// warm-up at 10.2k requests/s, the fastest rate measured for this server on
// a 2-vCPU Xeon (runs of a 91-task LU flow): 63 × 10 200 / 256 ≈ 2 510.
const serveMaxFlows = 4096

const serveClients = 2

func newServeMix(seed int64) (*serveMix, error) {
	pool, err := servePool()
	if err != nil {
		return nil, err
	}
	l, err := startServer(serveConfig(serveMaxFlows))
	if err != nil {
		return nil, err
	}
	w := &serveMix{seed: seed, l: l, pool: pool}
	for _, f := range pool {
		if err := l.register(f); err != nil {
			l.close()
			return nil, err
		}
	}
	return w, nil
}

// clientLoop runs one client until stop closes, following its seeded mix.
func (w *serveMix) clientLoop(c *serveClient, gen *mixGen, stop <-chan struct{}, ops, tasks *atomic.Int64) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		r := gen.next()
		f, class := w.pool[r.pool], r.class
		if class == classMiss {
			var err error
			if f, err = missFlow(w.seed, w.nextMiss.Add(1)-1); err != nil {
				c.correct = false
				c.err = err
				return
			}
		}
		if n, ok := c.do(class, f); ok {
			ops.Add(1)
			tasks.Add(n)
		}
	}
}

// phase runs one client goroutine per client for d and samples throughput
// and process CPU every sliceLen. With tracing non-nil, tracing is on in
// even slices and off in odd ones.
func (w *serveMix) phase(d time.Duration, clients []*serveClient, gens []*mixGen, tracing *atomic.Bool) []slice {
	var ops, tasks atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	if tracing != nil {
		tracing.Store(true)
	}
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.clientLoop(c, gens[i], stop, &ops, &tasks)
		}()
	}
	var ss []slice
	start := time.Now()
	t0, c0, o0, k0 := start, cpuTime(), ops.Load(), tasks.Load()
	for i := 0; time.Since(start) < d; i++ {
		time.Sleep(sliceLen)
		t1, c1, o1, k1 := time.Now(), cpuTime(), ops.Load(), tasks.Load()
		ss = append(ss, slice{ops: o1 - o0, tasks: k1 - k0, busy: t1.Sub(t0), cpu: c1 - c0})
		t0, c0, o0, k0 = t1, c1, o1, k1
		if tracing != nil {
			tracing.Store(i%2 == 1)
		}
	}
	close(stop)
	wg.Wait()
	return ss
}

func runServeMix(c config) (*result, error) {
	res := newResult(c)
	w, setupS, err := repeatSetup(func() (*serveMix, error) { return newServeMix(c.seed) }, func(w *serveMix) { w.l.close() })
	if err != nil {
		return nil, err
	}
	defer w.l.close()

	var tracing *atomic.Bool
	if c.traced {
		tracing = new(atomic.Bool)
	}
	clients := make([]*serveClient, serveClients)
	warmClients := make([]*serveClient, serveClients)
	gens := make([]*mixGen, serveClients)
	for i := range clients {
		clients[i] = newServeClient(w.l, newTracer(c.traced, c.origin, maxKeptSpans/serveClients), tracing)
		warmClients[i] = newServeClient(w.l, newTracer(false, c.origin, 0), nil)
		gens[i] = newMix(c.seed, i, len(w.pool))
	}
	w.phase(c.warmup, warmClients, gens, nil)
	ss := w.phase(c.seconds, clients, gens, tracing)

	var lat, traced, plain []time.Duration
	var okExec, okMiss int64
	for _, cl := range append(warmClients, clients...) {
		okExec += cl.okExec
		okMiss += cl.okMiss
		res.correct = res.correct && cl.correct
		if cl.err != nil {
			res.e2e.note("first failure: %v", cl.err)
		}
	}
	for _, cl := range clients {
		lat = append(lat, cl.lat...)
		traced = append(traced, cl.traced...)
		plain = append(plain, cl.plain...)
		for k := range cl.classes {
			res.tally.merge(cl.classes[k].tally)
		}
		res.tracer.merge(cl.tr)
	}

	hits, misses, err := w.l.cacheStats()
	if err != nil {
		return nil, err
	}
	wantMisses := int64(len(w.pool)) + okMiss
	var failed, failedMisses int64
	for _, cl := range append(warmClients, clients...) {
		for k := range cl.classes {
			failed += cl.classes[k].tally.failed
		}
		failedMisses += cl.classes[classMiss].tally.failed
	}
	if !cacheCountsAgree(hits, misses, okExec, wantMisses, failed, failedMisses) {
		res.correct = false
		res.e2e.note("cache counters: /v1/progress hits %d misses %d, clients saw %d executions and %d registrations, %d failed requests (%d never-seen)",
			hits, misses, okExec, wantMisses, failed, failedMisses)
	}

	res.e2e.set("setup_s", setupS, "s")
	k := kindResult{durs: lat, slices: ss, traced: traced, plain: plain}
	k.e2e(res.e2e)
	res.e2e.set("rss_peak_mb", peakRSSMB(), "MB")
	for cls, name := range classNames {
		var t tally
		for _, cl := range clients {
			t.merge(cl.classes[cls].tally)
		}
		res.e2e.note("class %s: %d requests, %d failed", name, t.attempted, t.failed)
	}

	if c.traced {
		res.layer.set("trace.overhead_ratio", k.overheadRatio(), "ratio")
		res.layer.set("server.cache_hit_ratio", safeDiv(float64(hits), float64(hits+misses)), "ratio")
		graphs := make([]*stf.Graph, len(w.pool))
		bodies := make([][]byte, len(w.pool))
		for i, f := range w.pool {
			graphs[i], bodies[i] = f.g, f.envelope
		}
		probeLayers(res, c, probeInput{
			graphs:  graphs,
			bodies:  bodies,
			kernel:  func(*rio.Task, rio.WorkerID) {},
			workers: 2,
			prune:   true,
			skip:    skipServer,
		})
		floor, err := w.l.httpFloor(200)
		if err != nil {
			return nil, err
		}
		misses := make([]*serveFlow, 32)
		for i := range misses {
			if misses[i], err = missFlow(w.seed, -1-int64(i)); err != nil {
				return nil, err
			}
		}
		miss, err := missCost(misses)
		if err != nil {
			return nil, err
		}
		var classes [numClasses]classStats
		for _, cl := range clients {
			for i := range classes {
				mergeClass(&classes[i], &cl.classes[i])
			}
		}
		serverLayer(res.layer, res.tracer, classes, floor, miss)
	}
	return res, nil
}

// cacheCountsAgree is the serve-mix cache oracle: the compiled-program
// cache must have seen one miss per registered flow and one hit per
// successful execution. A failed request may or may not have reached the
// cache first, so each failure widens the accepted range by one: any failed
// request by a hit, a failed submit_miss also by a miss.
func cacheCountsAgree(hits, misses, executions, registrations, failed, failedMisses int64) bool {
	return hits >= executions && hits <= executions+failed &&
		misses >= registrations && misses <= registrations+failedMisses
}

func mergeClass(a, b *classStats) {
	a.tally.merge(b.tally)
	a.lat = append(a.lat, b.lat...)
	a.latSum += b.latSum
	a.queue += b.queue
	a.wall += b.wall
	a.outside = append(a.outside, b.outside...)
}

// missCost times, on never-seen request bodies, the work a submit_miss
// does besides the HTTP exchange, the queue and the engine run: parse, the
// execute step's second decode, preflight, compile and certification.
func missCost(flows []*serveFlow) (time.Duration, error) {
	var total time.Duration
	for _, f := range flows {
		t0 := time.Now()
		sub, err := ingest.Parse(bytes.NewReader(f.envelope), 2)
		if err != nil {
			return 0, err
		}
		if err := redecode(f.envelope); err != nil {
			return 0, err
		}
		if _, err := ingest.Preflight(sub, serverPreflight); err != nil {
			return 0, err
		}
		cp, err := rio.Compile(sub.Graph, 2, sub.Mapping, true)
		if err != nil {
			return 0, err
		}
		if rep := rio.Verify(sub.Graph, cp, sub.Mapping, nil); rep.Reject() {
			return 0, fmt.Errorf("verify rejected %s", f.g.Name)
		}
		total += time.Since(t0)
	}
	return total / time.Duration(len(flows)), nil
}

// redecode replicates the server's execute step, which decodes a
// POST /v1/run body a second time looking for the kernel field, so the
// submit classes' ledger can attribute it.
func redecode(body []byte) error {
	var rr struct {
		Kernel string `json:"kernel"`
	}
	return json.NewDecoder(bytes.NewReader(body)).Decode(&rr)
}

// serverLayer reports the server.* per-layer metrics and the per-class
// ledger: each class's mean client latency against the HTTP floor, the
// server-reported queue and engine time, and the ingest work the class
// adds (parse and second decode of the registered flows' bodies for hits,
// missCost for misses), all measured separately. A residual beyond ±10% is
// flagged.
func serverLayer(m metricSet, tr *tracer, classes [numClasses]classStats, floor, miss time.Duration) {
	m.set("server.engine_us", tr.p50US("server.engine"), "us")
	m.set("server.queue_us", tr.p50US("server.queue"), "us")
	var outside, lat []float64
	for i := range classes {
		outside = append(outside, classes[i].outside...)
		lat = append(lat, classes[i].lat...)
	}
	m.set("server.outside_engine_us", median(outside), "us")
	m.set("server.req_p99_ms", percentile(lat, 99)/1000, "ms")
	m.set("server.http_floor_us", us(floor), "us")
	parse := m.m["ingest.parse_us"].Value + m.m["server.redecode_us"].Value
	for i, name := range classNames {
		cs := &classes[i]
		m.set("server."+name+"_p50_us", median(cs.lat), "us")
		n := float64(len(cs.lat))
		if n == 0 {
			m.set("server."+name+"_residual_ratio", 0, "ratio")
			continue
		}
		attributed := us(floor) + us(cs.queue)/n + us(cs.wall)/n
		switch i {
		case classHit:
			attributed += parse
		case classMiss:
			attributed += us(miss)
		}
		r := 1 - attributed/(us(cs.latSum)/n)
		m.set("server."+name+"_residual_ratio", r, "ratio")
		m.note("ledger %s: mean latency %.1f us = http floor %.1f + queue %.1f + engine %.1f + ingest %.1f + residual %.1f (%d traced requests)",
			name, us(cs.latSum)/n, us(floor), us(cs.queue)/n, us(cs.wall)/n, attributed-us(floor)-us(cs.queue)/n-us(cs.wall)/n, us(cs.latSum)/n-attributed, len(cs.lat))
		if r > 0.10 || r < -0.10 {
			m.note("FLAG server ledger %s: residual %.3f exceeds ±10%%", name, r)
		}
	}
}
