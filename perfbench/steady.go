package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// runOnce runs one benchmark run of the binary at bin, from directory dir,
// and parses its last output line.
func runOnce(bin, dir, name string, seed int64, seconds float64, traced bool, stderr io.Writer) (output, error) {
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.Command(bin, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", tr)
	cmd.Dir = dir
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	err := cmd.Run()
	var res output
	last := lastLine(out.Bytes())
	if jerr := json.Unmarshal(last, &res); jerr != nil {
		if err == nil {
			err = fmt.Errorf("unparsable result line %q: %w", last, jerr)
		}
		return res, fmt.Errorf("%s seed %d: %w", name, seed, err)
	}
	if err != nil {
		return res, fmt.Errorf("%s seed %d: %w", name, seed, err)
	}
	return res, nil
}

func lastLine(b []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// spread summarizes one metric's values over a set of runs.
type spread struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	// IQR is (Q3-Q1)/median, the share the bounds are judged against.
	IQR float64 `json:"iqr_share"`
}

func summarize(xs []float64) spread {
	q1, q2, q3 := quartiles(xs)
	s := spread{Median: q2, Q1: q1, Q3: q3, Min: xs[0], Max: xs[0]}
	for _, x := range xs {
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	if q2 != 0 {
		s.IQR = (q3 - q1) / q2
	}
	return s
}

// steady runs a workload runs times with consecutive seeds and prints each
// metric's median, quartiles, min/max and spread against its bound. It
// fails when an end-to-end spread (setup_s aside) reaches a third of its
// bound, or when the failed share differs between runs.
func steady(name string, runs int, seedBase int64, seconds float64, traced bool, stdout, stderr io.Writer) int {
	if _, ok := newWorkload(name, 0); !ok || runs < 2 {
		fmt.Fprintf(stderr, "perfbench: steady needs a workload (%v) and -runs >= 2\n", workloadNames)
		return 2
	}
	bin, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	vals := map[string][]float64{}
	// Whole rounds: the failed share is the same in every run.
	shares := map[float64]bool{}
	for i := 0; i < runs; i++ {
		res, err := runOnce(bin, dir, name, seedBase+int64(i), seconds, traced, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		shares[float64(res.Failed)/float64(res.Attempted)] = true
		fmt.Fprintf(stderr, "run %d (seed %d):", i+1, seedBase+int64(i))
		for _, d := range metricDefs(traced) {
			fmt.Fprintf(stderr, " %s=%.5g", d.name, res.Metrics[d.name].Value)
		}
		fmt.Fprintln(stderr)
		for k, m := range res.Metrics {
			vals[k] = append(vals[k], m.Value)
		}
	}
	code := 0
	if len(shares) != 1 {
		fmt.Fprintf(stderr, "perfbench: failed share differs between runs: %v\n", shares)
		code = 1
	}
	fmt.Fprintf(stdout, "%s: %d runs, seeds %d..%d, %gs each\n", name, runs, seedBase, seedBase+int64(runs)-1, seconds)
	fmt.Fprintf(stdout, "%-30s %12s %12s %12s %12s %12s %8s %6s\n", "metric", "median", "q1", "q3", "min", "max", "spread", "bound")
	sum := map[string]spread{}
	for _, d := range metricDefs(traced) {
		xs := vals[d.name]
		if len(xs) == 0 {
			continue
		}
		s := summarize(xs)
		sum[d.name] = s
		flag := ""
		if !traced && d.name != "setup_s" && s.IQR >= d.bound/3 {
			flag = "  > bound/3"
			code = 1
		}
		fmt.Fprintf(stdout, "%-30s %12.5g %12.5g %12.5g %12.5g %12.5g %7.2f%% %5.0f%%%s\n",
			d.name, s.Median, s.Q1, s.Q3, s.Min, s.Max, 100*s.IQR, 100*d.bound, flag)
	}
	line, _ := json.Marshal(sum)
	fmt.Fprintln(stdout, string(line))
	return code
}
