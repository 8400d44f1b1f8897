package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (tracing inside the program is not part of this benchmark).
// Spans of one operation share Op; Parent is the index of the enclosing
// span within the operation, -1 for its root.
type span struct {
	Op     int64  `json:"op"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children (overlapping children count once,
// children reaching outside the parent are clipped to it).
func selfTimes(ss []span) []int64 {
	self := make([]int64, len(ss))
	var iv [][2]int64
	for i, p := range ss {
		iv = iv[:0]
		for _, c := range ss {
			if c.Parent != p.ID || c.ID == p.ID {
				continue
			}
			lo, hi := max(c.Start, p.Start), min(c.End, p.End)
			if lo < hi {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, curLo, curHi int64
		for k, x := range iv {
			if k == 0 || x[0] > curHi {
				covered += curHi - curLo
				curLo, curHi = x[0], x[1]
			} else if x[1] > curHi {
				curHi = x[1]
			}
		}
		covered += curHi - curLo
		self[i] = p.End - p.Start - covered
	}
	return self
}

// spanAgg accumulates the spans of one name.
type spanAgg struct {
	n           int64
	total, self time.Duration
	durUS       []float64
}

// tracer records spans for one goroutine. With on == false every method is
// a no-op, so the same loop code serves the traced and the untraced run.
// Spans stay in memory: each operation's spans fold into per-name
// aggregates when the operation ends, and the first keep spans are
// retained verbatim for the span file.
type tracer struct {
	on     bool
	origin time.Time
	op     int64
	cur    []span
	agg    map[string]*spanAgg
	kept   []span
	keep   int
}

func newTracer(on bool, origin time.Time, keep int) *tracer {
	return &tracer{on: on, origin: origin, agg: make(map[string]*spanAgg), keep: keep}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// beginOp starts a new operation; its spans share one op id.
func (t *tracer) beginOp() {
	if !t.on {
		return
	}
	t.op++
	t.cur = t.cur[:0]
}

// open starts a span under parent (-1 for the root) and returns its id.
func (t *tracer) open(name string, parent int32) int32 {
	if !t.on {
		return -1
	}
	now := t.now()
	return t.add(name, parent, now, now)
}

// close ends span id.
func (t *tracer) close(id int32) {
	if t.on && id >= 0 {
		t.cur[id].End = t.now()
	}
}

// add records a span with explicit bounds (used for intervals measured by
// the program itself, such as a response's queue and engine time).
func (t *tracer) add(name string, parent int32, start, end int64) int32 {
	if !t.on {
		return -1
	}
	id := int32(len(t.cur))
	t.cur = append(t.cur, span{Op: t.op, ID: id, Parent: parent, Name: name, Start: start, End: end})
	return id
}

// endOp folds the operation's spans into the aggregates.
func (t *tracer) endOp() {
	if !t.on {
		return
	}
	self := selfTimes(t.cur)
	for i, s := range t.cur {
		a := t.agg[s.Name]
		if a == nil {
			a = &spanAgg{}
			t.agg[s.Name] = a
		}
		d := time.Duration(s.End - s.Start)
		a.n++
		a.total += d
		a.self += time.Duration(self[i])
		a.durUS = append(a.durUS, us(d))
	}
	if room := t.keep - len(t.kept); room > 0 {
		t.kept = append(t.kept, t.cur[:min(room, len(t.cur))]...)
	}
}

// merge folds another goroutine's tracer into t.
func (t *tracer) merge(o *tracer) {
	for name, b := range o.agg {
		a := t.agg[name]
		if a == nil {
			a = &spanAgg{}
			t.agg[name] = a
		}
		a.n += b.n
		a.total += b.total
		a.self += b.self
		a.durUS = append(a.durUS, b.durUS...)
	}
	if room := t.keep - len(t.kept); room > 0 {
		t.kept = append(t.kept, o.kept[:min(room, len(o.kept))]...)
	}
}

// p50US is the median duration of the named spans in microseconds (0 when
// none was recorded).
func (t *tracer) p50US(name string) float64 {
	if a := t.agg[name]; a != nil && len(a.durUS) > 0 {
		return median(a.durUS)
	}
	return 0
}

// meanUS is the mean duration of the named spans in microseconds.
func (t *tracer) meanUS(name string) float64 {
	if a := t.agg[name]; a != nil && a.n > 0 {
		return us(a.total) / float64(a.n)
	}
	return 0
}

// selfMeanUS is the mean self time of the named spans in microseconds.
func (t *tracer) selfMeanUS(name string) float64 {
	if a := t.agg[name]; a != nil && a.n > 0 {
		return us(a.self) / float64(a.n)
	}
	return 0
}

// table lists every span name with its count, mean duration and mean self
// time, for the traced run's log.
func (t *tracer) table() []string {
	names := make([]string, 0, len(t.agg))
	for name := range t.agg {
		names = append(names, name)
	}
	sort.Strings(names)
	lines := make([]string, len(names))
	for i, name := range names {
		lines[i] = fmt.Sprintf("%-28s n=%-8d mean %12.3f us  self %12.3f us  p50 %12.3f us",
			name, t.agg[name].n, t.meanUS(name), t.selfMeanUS(name), t.p50US(name))
	}
	return lines
}

// write stores the retained spans as JSON lines, after one header line
// carrying the run's stamp.
func (t *tracer) write(path string, header any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	for i := range t.kept {
		if err := enc.Encode(&t.kept[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
