package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval: a phase, an operation, a request or a
// call into a layer. Spans of one operation share Op.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so untraced runs pay one nil check per span.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	ids   atomic.Int64
	ops   atomic.Int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// live is an open span.
type live struct {
	t    *tracer
	s    span
	done bool
}

// newOp returns a fresh operation ID.
func (t *tracer) newOp() int64 {
	if t == nil {
		return 0
	}
	return t.ops.Add(1)
}

// begin opens a span under parent (nil for a root) for operation op;
// op 0 inherits the parent's.
func (t *tracer) begin(name string, parent *live, op int64) *live {
	if t == nil {
		return nil
	}
	s := span{ID: t.ids.Add(1), Op: op, Name: name, Start: int64(time.Since(t.t0))}
	if parent != nil {
		s.Parent = parent.s.ID
		if op == 0 {
			s.Op = parent.s.Op
		}
	}
	return &live{t: t, s: s}
}

// record adds an already-timed span.
func (t *tracer) record(name string, parent *live, op int64, start, end time.Time) {
	if t == nil {
		return
	}
	l := t.begin(name, parent, op)
	l.s.Start = int64(start.Sub(t.t0))
	l.s.End = int64(end.Sub(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, l.s)
	t.mu.Unlock()
}

func (l *live) end() {
	if l == nil || l.done {
		return
	}
	l.done = true
	l.s.End = int64(time.Since(l.t.t0))
	l.t.mu.Lock()
	l.t.spans = append(l.t.spans, l.s)
	l.t.mu.Unlock()
}

// write stores every span as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns, per span name, the count, total duration and self
// time: the span's duration minus the part of it its children cover.
func (t *tracer) selfTimes() map[string]*layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]*layerTime{}
	for _, s := range t.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		lt.count++
		lt.total += time.Duration(s.End - s.Start)
		covered := coverage(s, kids[s.ID])
		lt.self += time.Duration(s.End-s.Start) - covered
	}
	return out
}

type layerTime struct {
	count       int
	total, self time.Duration
}

// coverage is the length of the union of the children's intervals
// clipped to the parent's.
func coverage(p span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, x := range iv {
		if i == 0 || x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	total += curB - curA
	return time.Duration(total)
}

// printSelfTimes writes the per-span-name table.
func printSelfTimes(w io.Writer, t *tracer) {
	st := t.selfTimes()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return st[names[i]].self > st[names[j]].self })
	fmt.Fprintf(w, "%-44s %8s %12s %12s %12s\n", "span", "count", "total_ms", "self_ms", "self_us/op")
	for _, n := range names {
		lt := st[n]
		fmt.Fprintf(w, "%-44s %8d %12.1f %12.1f %12.1f\n", n, lt.count,
			float64(lt.total)/1e6, float64(lt.self)/1e6, float64(lt.self)/1e3/float64(lt.count))
	}
}
