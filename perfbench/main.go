// Command perfbench is the repository's benchmark. One run drives one named
// workload through the simulator's public packages from a single process,
// checks the outputs, and prints one JSON line of metrics:
//
//	perfbench --workload paper-sweep --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (from spans the benchmark records around each layer call). Two more modes
// compare runs: -mode steady runs a workload N times and prints each
// metric's spread; -mode ab builds two commits and alternates them. See
// README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

var workloadNames = []string{"paper-sweep", "oracles", "serve"}

func newWorkload(name string, seed int64) (workload, bool) {
	switch name {
	case "paper-sweep":
		return newPaperSweep(seed), true
	case "oracles":
		return newOracles(seed), true
	case "serve":
		return newServe(seed), true
	}
	return nil, false
}

// output is the last line a run prints.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	mode := fs.String("mode", "run", "run | steady | ab")
	name := fs.String("workload", "", "workload: paper-sweep | oracles | serve")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 30, "timed-phase length of one run")
	traceFlag := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	spans := fs.String("spans", "", "traced runs: write the spans here (default .bench_build/spans-<workload>.json)")
	runs := fs.Int("runs", 10, "steady/ab: runs per side")
	seedBase := fs.Int64("seed-base", 1, "steady/ab: seed of the first run")
	base := fs.String("base", "HEAD~1", "ab: parent commit")
	head := fs.String("head", "HEAD", "ab: changed commit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	traced := *traceFlag == 1
	switch *mode {
	case "steady":
		return steady(*name, *runs, *seedBase, *seconds, traced, stdout, stderr)
	case "ab":
		return abCompare(*name, *base, *head, *runs, *seedBase, *seconds, stdout, stderr)
	case "run":
	default:
		fmt.Fprintf(stderr, "perfbench: unknown -mode %q\n", *mode)
		return 2
	}
	w, ok := newWorkload(*name, *seed)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %v)\n", *name, workloadNames)
		return 2
	}
	if *seconds <= 0 || (*traceFlag != 0 && !traced) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	// The simulator is single-threaded: with one P the garbage collector's
	// work lands in the item that caused it instead of on a second CPU
	// whose availability varies (README.md). The service is concurrent by
	// design and keeps every P.
	if *name != "serve" {
		runtime.GOMAXPROCS(1)
	}
	b := newBench(*seed, *seconds, traced, stderr)
	if err := b.execute(w); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, f := range b.failures {
		fmt.Fprintf(stderr, "perfbench: failed %d times: %s\n", b.failMsgs[f], f)
	}
	if b.checkErr != nil {
		fmt.Fprintf(stderr, "perfbench: output check failed: %v\n", b.checkErr)
	}
	if traced {
		b.tr.writeSelfTable(stderr)
		path := *spans
		if path == "" {
			path = filepath.Join(".bench_build", "spans-"+*name+".json")
		}
		if err := b.tr.writeFile(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
	}
	out := output{Correct: b.checkErr == nil, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	vals := b.result(traced)
	for _, d := range metricDefs(traced) {
		out.Metrics[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	if extra := unknownMetrics(vals, traced); len(extra) > 0 {
		fmt.Fprintf(stderr, "perfbench: metrics missing from the definitions: %v\n", extra)
		return 1
	}
	fmt.Fprintf(stderr, "perfbench: peak RSS %.0f MB\n", peakRSSMB())
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// unknownMetrics lists computed metrics that no definition names, so a
// metric cannot be computed and then silently dropped.
func unknownMetrics(vals map[string]float64, traced bool) []string {
	known := map[string]bool{}
	for _, d := range metricDefs(traced) {
		known[d.name] = true
	}
	var out []string
	for k := range vals {
		if !known[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// subSeed derives the k-th positive, nonzero input seed from the workload
// seed (splitmix64).
func subSeed(seed int64, k int) int64 {
	z := uint64(seed) + uint64(k+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if s := int64(z >> 33); s != 0 {
		return s
	}
	return 1
}
