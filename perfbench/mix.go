package main

import "math/rand"

// request is one entry of a client's seeded request sequence.
type request struct {
	class int // classRun, classHit or classMiss
	pool  int // index of the registered flow (classRun, classHit)
}

// Mix shares out of 256. The workload fixes only their order (most requests
// run a registered flow, some re-submit one, a small share submit a
// never-seen one); the values are assumptions sized for the traced run,
// which sees half of a 25 s run at 2.3k requests/s or more (the slowest
// serve-mix rate measured on a 2-vCPU Xeon):
//   - hits, 16/256: the smallest power-of-two share that gives the class
//     >= 1 000 traced samples, so its p99 has ten samples beyond it;
//   - misses, 1/256: the smallest that gives >= 100 traced samples (p90),
//     kept below the hits because every never-seen flow stays registered
//     for the rest of the run (the server has no eviction).
//
// The remaining 239/256 (~93%) are runs of a registered flow.
const (
	mixScale   = 256
	mixMisses  = 1
	mixHits    = 16
	mixSeedMul = 1_000_003
)

// mixGen generates one client's request sequence. The sequence depends
// only on the seed, the client number and the pool size, so the same seed
// replays the same requests.
type mixGen struct {
	rng  *rand.Rand
	pool int
}

func newMix(seed int64, client, pool int) *mixGen {
	return &mixGen{rng: rand.New(rand.NewSource(seed*mixSeedMul + int64(client))), pool: pool}
}

func (g *mixGen) next() request {
	u := g.rng.Intn(mixScale)
	r := request{class: classRun, pool: g.rng.Intn(g.pool)}
	switch {
	case u < mixMisses:
		r.class = classMiss
	case u < mixMisses+mixHits:
		r.class = classHit
	}
	return r
}
