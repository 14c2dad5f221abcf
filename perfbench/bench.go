package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// workload is one named input set. A run calls setup before every round
// (and a few extra times when the run has fewer rounds than minSetups), so
// set-up cost is sampled several times per run; round runs one whole pass
// over the workload's items; finish runs the output checks that need the
// whole run and adds the workload's own metrics.
type workload interface {
	setup(b *bench) error
	round(b *bench) error
	finish(b *bench) error
}

// minSetups is how many set-ups a run times at least; setup_s is their
// median.
const minSetups = 3

// bench is one run's measurement state: the timed-phase accounting, the
// item timings, the operation counts, and the tracer.
type bench struct {
	seed    int64
	seconds float64
	tr      *tracer
	log     io.Writer // progress lines

	rounds    int
	attempted int
	failed    int
	// failures keeps the first few distinct failure messages for stderr,
	// failMsgs how often each occurred.
	failures []string
	failMsgs map[string]int
	// checkErr is the first output-check failure; a run with one reports
	// correct=false.
	checkErr error

	items   []float64 // item wall times, ms
	setups  []float64 // set-up wall times, s
	cpu     float64   // timed-phase process CPU, s
	alloc   float64   // timed-phase bytes allocated
	timedS  float64   // timed-phase wall, s
	skipCPU float64   // CPU, alloc and wall spent in untimed checks inside rounds
	skipAl  float64
	skipS   float64

	// layer holds per-layer metrics the workload computes itself (counts
	// and simulated quantities); the tracer adds the timed ones.
	layer map[string]float64
	// e2e holds the workload's own end-to-end metrics (simulated
	// quantities); the run adds the host-cost ones.
	e2e map[string]float64
}

func newBench(seed int64, seconds float64, traced bool, log io.Writer) *bench {
	return &bench{
		log:      log,
		seed:     seed,
		seconds:  seconds,
		tr:       newTracer(traced),
		failMsgs: map[string]int{},
		layer:    map[string]float64{},
		e2e:      map[string]float64{},
	}
}

// item runs one timed operation and records its wall time. A failed item
// counts in failed and its time is not recorded.
func (b *bench) item(name string, fn func() error) {
	b.attempted++
	sp := b.tr.start(name, "")
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	b.tr.stop(sp)
	if err != nil {
		b.fail(fmt.Errorf("%s: %w", name, err))
		return
	}
	b.items = append(b.items, float64(d)/float64(time.Millisecond))
}

func (b *bench) fail(err error) {
	b.failed++
	msg := err.Error()
	if b.failMsgs[msg] == 0 && len(b.failures) < 8 {
		b.failures = append(b.failures, msg)
	}
	b.failMsgs[msg]++
}

// check records an output-check failure (the first one wins).
func (b *bench) check(err error) {
	if err != nil && b.checkErr == nil {
		b.checkErr = err
	}
}

// untimed runs fn inside a round but outside the timed-phase accounting:
// its CPU, allocation and wall time are subtracted from the round's.
func (b *bench) untimed(fn func()) {
	c0, a0, t0 := cpuSeconds(), allocBytes(), time.Now()
	fn()
	b.skipCPU += cpuSeconds() - c0
	b.skipAl += allocBytes() - a0
	b.skipS += time.Since(t0).Seconds()
}

// execute drives the workload: set-ups and whole rounds until the timed
// phase has lasted the requested seconds, then the workload's finish.
func (b *bench) execute(w workload) error {
	var gcs, pauseNS uint64
	for b.rounds == 0 || b.timedS < b.seconds {
		if err := b.timeSetup(w); err != nil {
			return err
		}
		b.skipCPU, b.skipAl, b.skipS = 0, 0, 0
		n0 := len(b.items)
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		c0, a0, t0 := cpuSeconds(), allocBytes(), time.Now()
		if err := w.round(b); err != nil {
			return err
		}
		runtime.ReadMemStats(&ms1)
		gcs += uint64(ms1.NumGC - ms0.NumGC)
		pauseNS += ms1.PauseTotalNs - ms0.PauseTotalNs
		cpu := cpuSeconds() - c0 - b.skipCPU
		wall := time.Since(t0).Seconds() - b.skipS
		b.cpu += cpu
		b.alloc += allocBytes() - a0 - b.skipAl
		b.timedS += wall
		b.rounds++
		fmt.Fprintf(b.log, "round %d: %d items, %.3f s wall, %.3f cpu-s, item p50 %.3f ms\n",
			b.rounds, len(b.items)-n0, wall, cpu, percentile(b.items[n0:], 50))
	}
	for len(b.setups) < minSetups {
		if err := b.timeSetup(w); err != nil {
			return err
		}
	}
	b.layer["runtime.gc_cycles"] = float64(gcs) / float64(b.rounds)
	b.layer["runtime.gc_pause_ms"] = float64(pauseNS) / 1e6 / float64(b.rounds)
	return w.finish(b)
}

func (b *bench) timeSetup(w workload) error {
	t0 := time.Now()
	if err := w.setup(b); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	b.setups = append(b.setups, time.Since(t0).Seconds())
	return nil
}

// result assembles the metrics the run prints: the end-to-end set untraced,
// the per-layer set traced.
func (b *bench) result(traced bool) map[string]float64 {
	out := map[string]float64{}
	perCPU := 0.0
	if b.cpu > 0 {
		perCPU = float64(len(b.items)) / b.cpu
	}
	if traced {
		for k, v := range b.layer {
			out[k] = v
		}
		for k, v := range b.tr.layerMetrics() {
			out[k] = v
		}
		out["bench.traced_items_per_cpu_s"] = perCPU
		return out
	}
	for k, v := range b.e2e {
		out[k] = v
	}
	out["setup_s"] = median(b.setups)
	out["items_per_cpu_s"] = perCPU
	out["item_ms_p50"] = percentile(b.items, 50)
	out["item_ms_p90"] = percentile(b.items, 90)
	out["alloc_mb"] = b.alloc / 1e6 / float64(b.rounds)
	return out
}

// ---- host measurements ----

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
var allocMu sync.Mutex

// allocBytes is the cumulative bytes allocated on the heap. It reads
// runtime/metrics, which does not stop the world, so spans can take it.
func allocBytes() float64 {
	allocMu.Lock()
	defer allocMu.Unlock()
	metrics.Read(allocSample)
	return float64(allocSample[0].Value.Uint64())
}

// ---- statistics ----

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile interpolates linearly between closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// geomean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
