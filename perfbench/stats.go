package main

import (
	"errors"
	"math"
	"net"
	"sort"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs,
// which it sorts in place. It returns NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return xs[min(max(nearestRank(p, len(xs)), 1), len(xs))-1]
}

// nearestRank is the 1-based rank of the p-th percentile of n samples,
// ⌈p·n/100⌉, with a tolerance so that 99.9% of 10000 is rank 9990, not the
// 9991 that float rounding would give.
func nearestRank(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// median is percentile(xs, 50) on a copy, leaving xs untouched.
func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 50)
}

// tailCandidates are the tail percentiles a report may quote, highest
// first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile picks the highest percentile of tailCandidates that has at
// least ten of n samples beyond it, so a quoted tail never rests on a
// handful of samples. ok is false when even the median has fewer than ten
// samples above it (n < 20).
func tailPercentile(n int) (p float64, ok bool) {
	for _, c := range tailCandidates {
		// Samples strictly beyond the nearest-rank c-th percentile.
		if n-nearestRank(c, n) >= 10 {
			return c, true
		}
	}
	return 0, false
}

// tally counts attempted and failed operations.
type tally struct {
	attempted, failed int64
}

// add counts one operation and reports whether it failed.
func (t *tally) add(failed bool) bool {
	t.attempted++
	if failed {
		t.failed++
	}
	return failed
}

// merge adds another tally's counts.
func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
}

// ratio is failed over attempted (0 before any attempt).
func (t tally) ratio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// requestFailed classifies one HTTP exchange: a transport error (timeouts
// included) or any status outside 2xx — 429 backpressure, 507 flow table
// full, 5xx — is a failure.
func requestFailed(status int, err error) bool {
	return err != nil || status < 200 || status > 299
}

// isTimeout reports whether err is a network timeout, for the failure
// breakdown printed with a serve run.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// slice is one fixed-length interval of a timed phase: the operations and
// tasks completed in it, the busy time spent on them and the process CPU
// time consumed.
type slice struct {
	ops, tasks int64
	busy, cpu  time.Duration
}

// sliceRates reduces a timed phase to medians over its slices, so a short
// burst of interference on the shared host moves one slice, not the result.
// Slices with no completed task are skipped.
func sliceRates(ss []slice) (opsPerS, tasksPerS, cpuNsPerTask float64) {
	var ops, tasks, cpuTask []float64
	for _, s := range ss {
		if s.tasks == 0 || s.ops == 0 || s.busy <= 0 {
			continue
		}
		sec := s.busy.Seconds()
		ops = append(ops, float64(s.ops)/sec)
		tasks = append(tasks, float64(s.tasks)/sec)
		cpuTask = append(cpuTask, float64(s.cpu.Nanoseconds())/float64(s.tasks))
	}
	return median(ops), median(tasks), median(cpuTask)
}

// cpuTime is the process's user+system CPU time (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB (ru_maxrss is
// in KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// ms and us convert a duration to a float in the named unit.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// durationsMS converts per-operation latencies to float milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// safeDiv is a/b, or 0 when b is 0.
func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
