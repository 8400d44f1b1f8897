package main

import (
	"errors"
	"fmt"

	"rio"
	"rio/internal/graphs"
	"rio/internal/stf"
)

// errOracle marks an operation whose output disagrees with the sequential
// reference. It makes the whole run incorrect rather than failed.
var errOracle = errors.New("oracle mismatch")

// Body cost in mix rounds: about four integer ops per round, so
// lightRounds is the "about 100 ops" checksum body and heavyRounds the 4×
// heavier Cholesky SYRK/GEMM update.
const (
	lightRounds = 25
	heavyRounds = 4 * lightRounds
)

// mix folds y into x through rounds of xorshift-multiply.
func mix(x, y uint64, rounds int) uint64 {
	x ^= y
	for i := 0; i < rounds; i++ {
		x ^= x >> 29
		x *= 0xbf58476d1ce4e5b9
		x += uint64(i)
	}
	return x
}

// applyTask is the checksum task body: every datum t writes becomes a mix
// of its old value, the values t reads and t's position in the flow. Any
// reordering of conflicting tasks changes the final checksum.
func applyTask(vals []uint64, t *stf.Task, rounds int) {
	in := uint64(t.ID)*0x9e3779b97f4a7c15 + 1
	for _, a := range t.Accesses {
		if a.Mode == stf.ReadOnly {
			in = in*31 + vals[a.Data]
		}
	}
	for _, a := range t.Accesses {
		if a.Mode != stf.ReadOnly {
			vals[a.Data] = mix(vals[a.Data], in, rounds)
		}
	}
}

// choleskyRounds makes the SYRK/GEMM trailing updates 4× heavier than the
// panel tasks.
func choleskyRounds(t *stf.Task) int {
	if t.Kernel == graphs.KSyrk || t.Kernel == graphs.KGemmChol {
		return heavyRounds
	}
	return lightRounds
}

func lightTask(*stf.Task) int { return lightRounds }

// initData derives a flow's initial data vector from the seed.
func initData(n int, seed int64) []uint64 {
	v := make([]uint64, n)
	x := uint64(seed)*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019
	for i := range v {
		x += 0x9e3779b97f4a7c15
		v[i] = mix(x, uint64(i), 2)
	}
	return v
}

// checksum folds a data vector into one word.
func checksum(vals []uint64) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, v := range vals {
		h = (h ^ v) * 0x100000001b3
	}
	return h
}

// checksumKernel executes recorded tasks against vals.
func checksumKernel(vals []uint64, rounds func(*stf.Task) int) rio.Kernel {
	return func(t *stf.Task, _ rio.WorkerID) { applyTask(vals, t, rounds(t)) }
}

// closureProgram submits every task of g as a closure over vals: the
// closure (Submit) path, with the bodies built once so a replay allocates
// nothing per task.
func closureProgram(g *stf.Graph, vals []uint64, rounds func(*stf.Task) int) rio.Program {
	bodies := make([]rio.TaskFunc, len(g.Tasks))
	for i := range g.Tasks {
		t := &g.Tasks[i]
		r := rounds(t)
		bodies[i] = func() { applyTask(vals, t, r) }
	}
	return func(s rio.Submitter) {
		for i := range g.Tasks {
			s.Submit(bodies[i], g.Tasks[i].Accesses...)
		}
	}
}

// sequentialChecksum runs prog on the sequential engine from init and
// returns the checksum of the result: the oracle every parallel run must
// reproduce.
func sequentialChecksum(numData int, prog rio.Program, vals, init []uint64) (uint64, error) {
	seq, err := rio.New(rio.Options{Model: rio.Sequential})
	if err != nil {
		return 0, err
	}
	copy(vals, init)
	if err := seq.Run(numData, prog); err != nil {
		return 0, fmt.Errorf("sequential reference: %w", err)
	}
	return checksum(vals), nil
}

// checkVals compares the data vector against the reference checksum.
func checkVals(vals []uint64, want uint64, what string) error {
	if got := checksum(vals); got != want {
		return fmt.Errorf("%s: checksum %#x, sequential reference %#x: %w", what, got, want, errOracle)
	}
	return nil
}
