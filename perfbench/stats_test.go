package main

import (
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {0.1, 1},
	} {
		if got := percentile(append([]float64(nil), xs...), c.p); got != c.want {
			t.Errorf("percentile(p%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples is not NaN")
	}
	in := []float64{3, 1, 2}
	if median(in) != 2 || in[0] != 3 {
		t.Error("median must not reorder its input")
	}
}

// The quoted tail is the highest percentile with at least ten samples
// beyond it; the sample count decides it.
func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 99.9, true}, // 10 beyond p99.9
		{9999, 99, true},    // p99.9 would leave 9
		{1000, 99, true},    // exactly 10 beyond p99
		{999, 95, true},
		{200, 95, true},
		{100, 90, true},
		{40, 75, true},
		{20, 50, true},
		{19, 0, false},
		{0, 0, false},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok {
			beyond := c.n - nearestRank(got, c.n)
			if beyond < 10 {
				t.Errorf("n=%d: p%g leaves %d samples beyond it", c.n, got, beyond)
			}
		}
	}
}

// Every refusal counts: 429 backpressure, 507 flow table full, any 5xx,
// other non-2xx statuses and transport errors including timeouts.
func TestFailedRatioCountsEveryRefusal(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/slow" {
			time.Sleep(200 * time.Millisecond)
		}
	}))
	defer srv.Close()
	client := &http.Client{Timeout: 20 * time.Millisecond}
	_, timeoutErr := client.Get(srv.URL + "/slow")
	if timeoutErr == nil || !isTimeout(timeoutErr) {
		t.Fatalf("expected a client timeout, got %v", timeoutErr)
	}

	var tl tally
	cases := []struct {
		status int
		err    error
		failed bool
	}{
		{200, nil, false},
		{204, nil, false},
		{429, nil, true},
		{507, nil, true},
		{500, nil, true},
		{503, nil, true},
		{504, nil, true},
		{404, nil, true},
		{0, timeoutErr, true},
		{0, context.DeadlineExceeded, true},
		{200, errors.New("reading body: connection reset"), true},
	}
	for _, c := range cases {
		if got := tl.add(requestFailed(c.status, c.err)); got != c.failed {
			t.Errorf("status %d err %v: failed = %v, want %v", c.status, c.err, got, c.failed)
		}
	}
	if tl.attempted != int64(len(cases)) || tl.failed != 9 {
		t.Fatalf("tally = %+v, want %d attempted and 9 failed", tl, len(cases))
	}
	if r := tl.ratio(); r != 9.0/11.0 {
		t.Errorf("ratio = %g, want 9/11", r)
	}
	var merged tally
	merged.merge(tl)
	merged.merge(tally{attempted: 9, failed: 1})
	if merged.attempted != 20 || merged.failed != 10 || merged.ratio() != 0.5 {
		t.Errorf("merged = %+v", merged)
	}
	if (tally{}).ratio() != 0 {
		t.Error("empty tally ratio is not 0")
	}
}

func TestSliceRatesAreMediansOverSlices(t *testing.T) {
	ss := []slice{
		{ops: 10, tasks: 1000, busy: time.Second, cpu: 2 * time.Millisecond},
		{ops: 20, tasks: 2000, busy: time.Second, cpu: 2 * time.Millisecond},
		{ops: 30, tasks: 3000, busy: time.Second, cpu: 6 * time.Millisecond},
		{}, // an empty slice is skipped
	}
	ops, tasks, cpuNs := sliceRates(ss)
	if ops != 20 || tasks != 2000 || cpuNs != 2000 {
		t.Errorf("sliceRates = %g ops/s, %g tasks/s, %g ns/task", ops, tasks, cpuNs)
	}
}

func TestCacheCountsAgreeAllowsOneCountPerFailure(t *testing.T) {
	for _, c := range []struct {
		hits, misses, failed, failedMisses int64
		want                               bool
	}{
		{hits: 100, misses: 12, want: true},
		{hits: 101, misses: 12, want: false},                             // a hit no client saw
		{hits: 99, misses: 12, want: false},                              // an execution the cache never saw
		{hits: 102, misses: 12, failed: 2, want: true},                   // both failures reached the cache
		{hits: 103, misses: 12, failed: 2, want: false},                  // more hits than failures explain
		{hits: 100, misses: 13, failed: 1, failedMisses: 1, want: true},  // a failed miss compiled first
		{hits: 100, misses: 13, failed: 1, want: false},                  // a failed run cannot add a miss
		{hits: 100, misses: 11, failed: 3, failedMisses: 3, want: false}, // failures never remove counts
	} {
		if got := cacheCountsAgree(c.hits, c.misses, 100, 12, c.failed, c.failedMisses); got != c.want {
			t.Errorf("cacheCountsAgree(hits %d, misses %d, failed %d/%d) = %v, want %v",
				c.hits, c.misses, c.failed, c.failedMisses, got, c.want)
		}
	}
}
