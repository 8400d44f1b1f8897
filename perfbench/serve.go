package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"time"

	"rio/internal/analyze"
	"rio/internal/graphs"
	"rio/internal/server"
	"rio/internal/server/ingest"
	"rio/internal/stf"
)

// Request classes of the serve mix.
const (
	classRun  = iota // POST /v1/flows/{id}/run of a registered flow
	classHit         // POST /v1/run of an already-registered flow
	classMiss        // POST /v1/run of a never-seen flow
	numClasses
)

var classNames = [numClasses]string{"run", "submit_hit", "submit_miss"}

// serveFlow is one flow the clients send: its graph, its expected content
// id and the request bodies (which name the kernel its runs use).
type serveFlow struct {
	g        *stf.Graph
	id       string
	graph    []byte // bare graph document: the POST /v1/flows body
	envelope []byte // {"graph": …, "kernel": …}: the POST /v1/run body
	run      []byte // {"kernel": …}: the POST /v1/flows/{id}/run body
}

func newServeFlow(g *stf.Graph, kernel string) (*serveFlow, error) {
	var gb bytes.Buffer
	if err := g.WriteJSON(&gb); err != nil {
		return nil, err
	}
	id, err := ingest.Hash(g, nil)
	if err != nil {
		return nil, err
	}
	env, err := json.Marshal(struct {
		Graph  json.RawMessage `json:"graph"`
		Kernel string          `json:"kernel"`
	}{gb.Bytes(), kernel})
	if err != nil {
		return nil, err
	}
	run, _ := json.Marshal(map[string]string{"kernel": kernel})
	return &serveFlow{g: g, id: id, graph: gb.Bytes(), envelope: env, run: run}, nil
}

// randomFlow is a seeded random dependency graph that passes the server's
// default preflight: every task updates one datum and reads up to two data
// that an earlier task already updated (so no read precedes the first
// write and no write is dead).
func randomFlow(name string, tasks, numData int, rng *rand.Rand) *stf.Graph {
	g := stf.NewGraph(name, numData)
	written := make([]bool, numData)
	var seen []stf.DataID
	for i := 0; i < tasks; i++ {
		d := stf.DataID(rng.Intn(numData))
		if i < numData {
			d = stf.DataID(i) // touch every datum once, so none is unused
		}
		acc := []stf.Access{stf.RW(d)}
		for r := 0; r < 2 && len(seen) > 0; r++ {
			if x := seen[rng.Intn(len(seen))]; x != d && (len(acc) < 2 || acc[1].Data != x) {
				acc = append(acc, stf.R(x))
			}
		}
		if !written[d] {
			written[d] = true
			seen = append(seen, d)
		}
		g.Add(graphs.KCounter, i, 0, 0, acc...)
	}
	return g
}

// diagonalWavefront is the n×n wavefront flow (cell (i,j) reads its north
// and west neighbours and updates itself) submitted by anti-diagonals. The
// row-major order of graphs.Wavefront serializes under the server's
// cyclic mapping, which its preflight rejects (RIO-M004); by diagonals,
// consecutive cells are independent and alternate between the workers.
func diagonalWavefront(n int) *stf.Graph {
	g := stf.NewGraph(fmt.Sprintf("wavefront-%d", n), n*n)
	for d := 0; d < 2*n-1; d++ {
		for i := max(0, d-n+1); i <= min(d, n-1); i++ {
			j := d - i
			acc := make([]stf.Access, 0, 3)
			if i > 0 {
				acc = append(acc, stf.R(stf.DataID((i-1)*n+j)))
			}
			if j > 0 {
				acc = append(acc, stf.R(stf.DataID(i*n+j-1)))
			}
			acc = append(acc, stf.RW(stf.DataID(i*n+j)))
			g.Add(graphs.KWave, i, j, 0, acc...)
		}
	}
	return g
}

// servePool builds the registered flows: each of the four families (LU,
// Cholesky, wavefront, random) at its largest size with at most 100, 250
// and 500 tasks, spanning the 50–500-task range of the workload. Random
// flows use a quarter as many data as tasks, so each datum is updated about
// four times. The LU and Cholesky flows run the noop kernel (their K field
// is a tile index, which the spin kernel would read as a weight); wavefront
// and random flows run spin at weight 1, so both kernels are on the request
// path.
func servePool() ([]*serveFlow, error) {
	// The pool is the same for every seed, so the cost of the mix does not
	// depend on it; the seed draws the request sequence and the
	// never-seen flows.
	rng := rand.New(rand.NewSource(poolSeed))
	gs := []struct {
		g      *stf.Graph
		kernel string
	}{
		{graphs.LU(6), "noop"}, {graphs.LU(8), "noop"}, {graphs.LU(10), "noop"}, // 91, 204, 385 tasks
		{graphs.Cholesky(7), "noop"}, {graphs.Cholesky(10), "noop"}, {graphs.Cholesky(13), "noop"}, // 84, 220, 455
		{diagonalWavefront(10), "spin"}, {diagonalWavefront(15), "spin"}, {diagonalWavefront(22), "spin"}, // 100, 225, 484
		{randomFlow("random-100", 100, 25, rng), "spin"},
		{randomFlow("random-250", 250, 62, rng), "spin"},
		{randomFlow("random-500", 500, 125, rng), "spin"},
	}
	pool := make([]*serveFlow, len(gs))
	for i, x := range gs {
		f, err := newServeFlow(x.g, x.kernel)
		if err != nil {
			return nil, err
		}
		pool[i] = f
	}
	return pool, nil
}

// missFlow builds the i-th never-seen flow of the submit_miss class: a
// random graph derived from (seed, i) alone, so a miss puts parse,
// preflight, compile and verify on the request path. It has 50–100 tasks,
// the small end of the pool's range, because it stays registered for the
// rest of the run, and a quarter as many data as tasks, like the pool's
// random flows. Clients build each one just before sending it, outside the
// request's timing.
func missFlow(seed int64, i int64) (*serveFlow, error) {
	rng := rand.New(rand.NewSource(seed*missSeedMul + i))
	n := 50 + rng.Intn(51)
	return newServeFlow(randomFlow(fmt.Sprintf("miss-%d", i), n, n/4, rng), "noop")
}

const (
	missSeedMul = 7_919
	poolSeed    = 20_220_530
)

// liveServer is an in-process rio-serve on a loopback listener.
type liveServer struct {
	srv    *server.Server
	hs     *http.Server
	base   string
	client *http.Client
	done   chan error
}

// serverPreflight is the server's default preflight (server.Config).
const serverPreflight = analyze.PassAccess | analyze.PassMapping

// serveConfig is rio-serve's default configuration with 2 workers and
// certification on; maxFlows sizes the flow table to the flows a run
// registers.
func serveConfig(maxFlows int) server.Config {
	return server.Config{
		Workers:  2,
		Prune:    true,
		Verify:   true,
		MaxFlows: maxFlows,
		Logf:     func(string, ...any) {},
	}
}

func startServer(cfg server.Config) (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &liveServer{
		srv:  server.New(cfg),
		base: "http://" + ln.Addr().String(),
		client: &http.Client{
			Timeout: 10 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     serveClients,
				MaxIdleConnsPerHost: serveClients,
				DisableCompression:  true,
			},
		},
		done: make(chan error, 1),
	}
	l.hs = &http.Server{Handler: l.srv.Handler()}
	go func() { l.done <- l.hs.Serve(ln) }()
	return l, nil
}

// close drains the service, shuts the listener down and waits for the
// serving goroutine to return.
func (l *liveServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	l.srv.Drain(ctx)
	l.hs.Shutdown(ctx)
	<-l.done
	l.client.CloseIdleConnections()
}

// post sends one request and decodes a 200 response into out.
func (l *liveServer) post(path string, body []byte, out any) (int, error) {
	resp, err := l.client.Post(l.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.Unmarshal(b, out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

// register submits a flow and checks the id the server derived.
func (l *liveServer) register(f *serveFlow) error {
	var info struct {
		ID string `json:"id"`
	}
	status, err := l.post("/v1/flows", f.graph, &info)
	if requestFailed(status, err) {
		return fmt.Errorf("registering %s: status %d: %v", f.g.Name, status, err)
	}
	if info.ID != f.id {
		return fmt.Errorf("registering %s: server id %s, ingest.Hash %s: %w", f.g.Name, info.ID, f.id, errOracle)
	}
	return nil
}

// cacheStats reads the compiled-program cache counters from /v1/progress.
func (l *liveServer) cacheStats() (hits, misses int64, err error) {
	resp, err := l.client.Get(l.base + "/v1/progress")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var p struct {
		Cache struct{ Hits, Misses int64 } `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		return 0, 0, err
	}
	return p.Cache.Hits, p.Cache.Misses, nil
}

// httpFloor is the median round trip of GET /healthz over n sequential
// requests: the HTTP cost every request pays before any rio layer.
func (l *liveServer) httpFloor(n int) (time.Duration, error) {
	ds := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		resp, err := l.client.Get(l.base + "/healthz")
		if err != nil {
			return 0, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		ds = append(ds, time.Since(t0))
	}
	return time.Duration(median(durationsMS(ds)) * float64(time.Millisecond)), nil
}
