// Command perfbench is the repository benchmark: it runs one named
// workload against the rio runtime for a fixed time, checks every output
// against a sequential oracle and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) as one JSON object on its last line.
//
//	perfbench --workload lu-fine --seed 1 --seconds 10 --trace 0
//
// The workloads are described in BENCHMARK.json and README.md next to this
// file; run.py builds and invokes this command from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is what every workload receives.
type config struct {
	seed    int64
	seconds time.Duration
	warmup  time.Duration
	traced  bool
	origin  time.Time
}

// result is what every workload returns.
type result struct {
	correct bool
	tally   tally
	e2e     metricSet
	layer   metricSet
	tracer  *tracer
}

func newResult(c config) *result {
	return &result{
		correct: true,
		e2e:     newMetricSet(),
		layer:   newMetricSet(),
		tracer:  newTracer(c.traced, c.origin, maxKeptSpans),
	}
}

// warmup is the closed-loop phase every run discards before timing: caches
// fill, lazy set-up finishes, and the host gives both vCPUs real cores (on
// the 2-vCPU VM this benchmark targets, two busy threads share one core
// for the first 1-2 s of load after an idle spell).
const warmup = 3 * time.Second

// maxFailedRatio is the share of failed operations beyond which a run
// exits non-zero even though every output was correct: the workloads are
// sized so that no operation fails.
const maxFailedRatio = 0.01

// maxKeptSpans bounds the spans written to the span file.
const maxKeptSpans = 200_000

// A run repeats its set-up at least minSetups times and until setupBudget
// has passed; setup_s is the median, so one slow set-up on the shared host
// does not move it.
const (
	minSetups   = 5
	setupBudget = 2 * time.Second
)

var workloads = map[string]func(config) (*result, error){
	"lu-fine":     runLUFine,
	"chol-steal":  runCholSteal,
	"stream-pipe": runStreamPipe,
	"serve-mix":   runServeMix,
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects metrics by name, plus free-form notes printed before
// the result line.
type metricSet struct {
	m     map[string]metric
	notes *[]string
}

func newMetricSet() metricSet {
	return metricSet{m: make(map[string]metric), notes: new([]string)}
}

// set records a metric. A value without samples behind it (NaN, as the
// median of nothing) is recorded as 0 and noted, so the result stays valid
// JSON.
func (s metricSet) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		s.note("%s: no samples in this run, reported as 0", name)
		v = 0
	}
	s.m[name] = metric{v, unit}
}

func (s metricSet) note(format string, args ...any) {
	*s.notes = append(*s.notes, fmt.Sprintf(format, args...))
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Int("seconds", 10, "length of the timed phase in seconds")
	traced := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	commit := fs.String("commit", "unknown", "commit sha to stamp on the result")
	tree := fs.String("tree", "unknown", "content hash of the source tree to stamp on the result")
	spans := fs.String("spans", "", "file the traced run writes its spans to (empty: none)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := workloads[*name]
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	c := config{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		warmup:  warmup,
		traced:  *traced == 1,
		origin:  time.Now(),
	}
	stamp := map[string]any{
		"workload": *name, "seed": *seed, "seconds": *seconds, "trace": *traced,
		"commit": *commit, "tree": *tree,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model": cpuModel(), "go_version": runtime.Version(),
	}
	stampJSON, _ := json.Marshal(stamp)
	fmt.Printf("stamp %s\n", stampJSON)

	res, err := w(c)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	ms := res.e2e
	if c.traced {
		ms = res.layer
		if *spans != "" {
			if err := res.tracer.write(*spans, stamp); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
				return 1
			}
		}
	}
	for _, n := range *res.e2e.notes {
		fmt.Println("note", n)
	}
	if c.traced {
		for _, n := range *res.layer.notes {
			fmt.Println("note", n)
		}
		for _, line := range res.tracer.table() {
			fmt.Println("span", line)
		}
	}
	fmt.Printf("note failed_ratio %.6f (%d of %d operations failed)\n", res.tally.ratio(), res.tally.failed, res.tally.attempted)
	keys := make([]string, 0, len(ms.m))
	for k := range ms.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("metric %-36s %16.6f %s\n", k, ms.m[k].Value, ms.m[k].Unit)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct, res.tally.attempted, res.tally.failed, ms.m})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.correct {
		fmt.Fprintln(os.Stderr, "perfbench: oracle mismatch")
		return 1
	}
	if r := res.tally.ratio(); r > maxFailedRatio {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed, more than %g%%\n", res.tally.failed, res.tally.attempted, 100*maxFailedRatio)
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// cpuModel reads the processor name from /proc/cpuinfo ("unknown" where
// there is none).
func cpuModel() string {
	b, err := os.ReadFile(filepath.Join("/proc", "cpuinfo"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// repeatSetup runs setup repeatedly (see minSetups) and keeps the last
// instance, releasing the others; it returns the median set-up time in
// seconds. Each set-up starts from a freshly collected heap, untimed, so
// none pays for its predecessors' garbage.
func repeatSetup[T any](setup func() (T, error), release func(T)) (T, float64, error) {
	var keep T
	var times []float64
	start := time.Now()
	for i := 0; i < minSetups || time.Since(start) < setupBudget; i++ {
		runtime.GC()
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return keep, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i > 0 {
			release(keep)
		}
		keep = v
	}
	return keep, median(times), nil
}
