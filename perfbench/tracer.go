package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public call it makes. Parent is the innermost span open when it
// started (-1 for a root); Tag splits a layer's calls (by protocol, say).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Tag    string  `json:"tag,omitempty"`
	Start  int64   `json:"start_ns"`
	End    int64   `json:"end_ns"`
	CPU    float64 `json:"cpu_s"`
	Alloc  float64 `json:"alloc_bytes"`
	cpu0   float64
	alloc0 float64
}

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing: start returns -1 and stop ignores it, so untraced runs
// pay one branch per call.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
	open  []int
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// start opens a span; stop closes it. Spans nest: the benchmark drives
// each layer from one goroutine at a time.
func (t *tracer) start(name, tag string) int {
	if !t.on {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Tag: tag,
		cpu0: cpuSeconds(), alloc0: allocBytes(), Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) stop(id int) {
	if id < 0 {
		return
	}
	end := int64(time.Since(t.t0))
	cpu, alloc := cpuSeconds(), allocBytes()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End, s.CPU, s.Alloc = end, cpu-s.cpu0, alloc-s.alloc0
	if n := len(t.open); n > 0 && t.open[n-1] == id {
		t.open = t.open[:n-1]
	}
}

// do wraps fn in a span.
func (t *tracer) do(name, tag string, fn func()) {
	id := t.start(name, tag)
	fn()
	t.stop(id)
}

// layerStat aggregates the spans of one name (and optionally one tag).
type layerStat struct {
	calls  int
	selfNS int64
	cpu    float64
	alloc  float64
}

func (s layerStat) selfMS() float64 {
	if s.calls == 0 {
		return 0
	}
	return float64(s.selfNS) / 1e6 / float64(s.calls)
}

func (s layerStat) allocMB() float64 {
	if s.calls == 0 {
		return 0
	}
	return s.alloc / 1e6 / float64(s.calls)
}

// stats aggregates spans by name, or with tagged by name+"."+tag over the
// tagged spans. A span's self time is its duration minus the durations of
// its direct children.
func (t *tracer) stats(tagged bool) map[string]layerStat {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]layerStat{}
	for i, s := range t.spans {
		key := s.Name
		if tagged {
			if s.Tag == "" {
				continue
			}
			key += "." + s.Tag
		}
		st := out[key]
		st.calls++
		st.selfNS += s.End - s.Start - child[i]
		st.cpu += s.CPU
		st.alloc += s.Alloc
		out[key] = st
	}
	return out
}

// layerMetrics turns the spans into the per-layer metrics: <layer>_ms is
// the mean self time per call, <layer>_alloc_mb the mean bytes allocated
// per call (children included).
func (t *tracer) layerMetrics() map[string]float64 {
	st, tagged := t.stats(false), t.stats(true)
	out := map[string]float64{}
	for _, name := range []string{"trace.generate", "program.compile", "machine.new", "machine.advance",
		"machine.results", "telemetry.snapshot", "litmus.model", "litmus.explore", "crashmc.run",
		"crashmc.mutate", "crashmc.harvest", "checker.check", "machine.crash", "client.submit",
		"client.wait", "client.result"} {
		out[name+"_ms"] = st[name].selfMS()
	}
	for _, p := range []string{"slc", "mesi", "tardis"} {
		out["machine.advance_ms."+p] = tagged["machine.advance."+p].selfMS()
		out["litmus.explore_ms."+p] = tagged["litmus.explore."+p].selfMS()
	}
	out["trace.generate_alloc_mb"] = st["trace.generate"].allocMB()
	out["machine.new_alloc_mb"] = st["machine.new"].allocMB()
	out["machine.advance_alloc_mb"] = st["machine.advance"].allocMB()
	out["litmus.alloc_mb"] = st["litmus.explore"].allocMB()
	return out
}

// writeSelfTable prints each layer's total self time and its share of all
// layer self time, largest first. Item spans (names without a dot) are
// left out: their self time is the benchmark's own work between calls.
func (t *tracer) writeSelfTable(w io.Writer) {
	st := t.stats(false)
	var names []string
	var total int64
	for k, s := range st {
		if strings.Contains(k, ".") {
			names = append(names, k)
			total += s.selfNS
		}
	}
	if total == 0 {
		return
	}
	sort.Slice(names, func(i, j int) bool { return st[names[i]].selfNS > st[names[j]].selfNS })
	fmt.Fprintf(w, "%-22s %8s %12s %7s\n", "span", "calls", "self_ms", "share")
	for _, k := range names {
		s := st[k]
		fmt.Fprintf(w, "%-22s %8d %12.1f %6.1f%%\n", k, s.calls, float64(s.selfNS)/1e6, 100*float64(s.selfNS)/float64(total))
	}
}

// writeFile writes the spans as JSON.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
