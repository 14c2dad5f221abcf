package main

import (
	"archive/tar"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// abCompare builds the benchmark against two commits side by side and
// alternates runs-many parent/change pairs, the parent first in even pairs.
// Both sides run this checkout's benchmark code, so only the program under
// test differs. Each metric gets each side's median and quartiles and the
// share of pairs the change won (ties count for neither). A gain needs at
// least nine tenths of the pairs and a median difference wider than the
// parent's own quartile spread; a regression is a median worse than the
// parent's by more than the metric's bound.
func abCompare(name, base, head string, runs int, seedBase int64, seconds float64, stdout, stderr io.Writer) int {
	if _, ok := newWorkload(name, 0); !ok || runs < 1 {
		fmt.Fprintf(stderr, "perfbench: ab needs a workload (%v) and -runs >= 1\n", workloadNames)
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	work := filepath.Join(root, ".bench_build", "ab")
	bins := map[string]string{}
	dirs := map[string]string{}
	for side, rev := range map[string]string{"base": base, "head": head} {
		dir := filepath.Join(work, side)
		bin, err := buildAt(root, rev, dir, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: ab %s (%s): %v\n", side, rev, err)
			return 1
		}
		bins[side], dirs[side] = bin, dir
	}
	vals := map[string]map[string][]float64{"base": {}, "head": {}}
	for i := 0; i < runs; i++ {
		order := []string{"base", "head"}
		if i%2 == 1 {
			order = []string{"head", "base"}
		}
		for _, side := range order {
			res, err := runOnce(bins[side], dirs[side], name, seedBase+int64(i), seconds, false, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: ab %s: %v\n", side, err)
				return 1
			}
			for k, m := range res.Metrics {
				vals[side][k] = append(vals[side][k], m.Value)
			}
		}
	}
	fmt.Fprintf(stdout, "%s: %d pairs, base %s vs head %s, %gs runs\n", name, runs, base, head, seconds)
	fmt.Fprintf(stdout, "%-20s %11s %11s %11s   %11s %11s %11s %6s  %s\n",
		"metric", "base q1", "median", "q3", "head q1", "median", "q3", "won", "verdict")
	for _, d := range endToEnd {
		b, h := vals["base"][d.name], vals["head"][d.name]
		if len(b) != runs || len(h) != runs {
			continue
		}
		sb, sh := summarize(b), summarize(h)
		won := 0
		for i := range b {
			if better(d, h[i], b[i]) {
				won++
			}
		}
		verdict := "no change beyond bound"
		switch {
		case float64(won) >= 0.9*float64(runs) && abs(sh.Median-sb.Median) > sb.Q3-sb.Q1:
			verdict = "gain"
		case worseBy(d, sh.Median, sb.Median) > d.bound:
			verdict = "regression"
		case sb.IQR > d.bound:
			verdict = "unresolved (spread wider than bound)"
		}
		fmt.Fprintf(stdout, "%-20s %11.5g %11.5g %11.5g   %11.5g %11.5g %11.5g %5.0f%%  %s\n",
			d.name, sb.Q1, sb.Median, sb.Q3, sh.Q1, sh.Median, sh.Q3, 100*float64(won)/float64(runs), verdict)
	}
	return 0
}

func better(d metricDef, x, y float64) bool {
	if d.better == "higher" {
		return x > y
	}
	return x < y
}

// worseBy is how much worse x is than the reference y, as a share of y.
func worseBy(d metricDef, x, y float64) float64 {
	if y == 0 {
		return 0
	}
	if d.better == "higher" {
		return (y - x) / y
	}
	return (x - y) / y
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// buildAt extracts the tree of rev into dir, overlays this checkout's
// benchmark directory, and builds the benchmark binary there.
func buildAt(root, rev, dir string, stderr io.Writer) (string, error) {
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	arch := exec.Command("git", "archive", "--format=tar", rev)
	arch.Dir = root
	arch.Stderr = stderr
	pipe, err := arch.StdoutPipe()
	if err != nil {
		return "", err
	}
	if err := arch.Start(); err != nil {
		return "", err
	}
	xerr := untar(pipe, dir)
	if err := arch.Wait(); err != nil {
		return "", fmt.Errorf("git archive: %w", err)
	}
	if xerr != nil {
		return "", xerr
	}
	bench := filepath.Join(dir, "perfbench")
	if err := os.RemoveAll(bench); err != nil {
		return "", err
	}
	if err := copyDir(filepath.Join(root, "perfbench"), bench); err != nil {
		return "", err
	}
	bin := filepath.Join(dir, ".bench_build", "perfbench")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Dir = bench
	build.Stdout, build.Stderr = stderr, stderr
	if err := build.Run(); err != nil {
		return "", fmt.Errorf("go build: %w", err)
	}
	return bin, nil
}

// untar extracts regular files and directories under dir.
func untar(r io.Reader, dir string) error {
	tr := tar.NewReader(r)
	for {
		h, err := tr.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		name := filepath.Clean(h.Name)
		if name == ".." || strings.HasPrefix(name, "../") || filepath.IsAbs(name) {
			return fmt.Errorf("unsafe path %q in archive", h.Name)
		}
		path := filepath.Join(dir, name)
		switch h.Typeflag {
		case tar.TypeDir:
			if err := os.MkdirAll(path, 0o755); err != nil {
				return err
			}
		case tar.TypeReg:
			if err := writeFile(path, tr, os.FileMode(h.Mode)&0o777); err != nil {
				return err
			}
		}
	}
}

func writeFile(path string, r io.Reader, mode os.FileMode) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, mode)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// copyDir copies the regular files of src into dst, recursively.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() || !d.Type().IsRegular() {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		return writeFile(filepath.Join(dst, rel), f, 0o644)
	})
}
