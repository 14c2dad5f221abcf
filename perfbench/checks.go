package main

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/trace"
)

// The output checks. Each compares the program's output with something the
// benchmark computes apart from the program, or with a property the method
// must have; none compares with a stored copy of earlier output.

// opCounts counts the loads, stores and syncs of a generated workload.
func opCounts(w *trace.Workload) (loads, stores, syncs uint64) {
	for _, ops := range w.Cores {
		for _, op := range ops {
			switch op.Kind {
			case mem.OpLoad:
				loads++
			case mem.OpStore:
				stores++
			case mem.OpSync:
				syncs++
			}
		}
	}
	return
}

// checkOpCounts requires the machine to have executed exactly the loads,
// stores and syncs of the workload it was given.
func checkOpCounts(w *trace.Workload, r *machine.Results) error {
	l, s, y := opCounts(w)
	if r.Loads != l || r.Stores != s || r.SyncOps != y {
		return fmt.Errorf("%s/%s: executed %d loads, %d stores, %d syncs; workload has %d, %d, %d",
			r.Benchmark, r.System, r.Loads, r.Stores, r.SyncOps, l, s, y)
	}
	return nil
}

// checkDurable requires the durable image after the final drain to hold
// the last coherence-ordered version of every written line.
func checkDurable(durable map[mem.Line]mem.Version, order map[mem.Line][]mem.Version) error {
	for l, vs := range order {
		if len(vs) == 0 {
			continue
		}
		if got, want := durable[l], vs[len(vs)-1]; got != want {
			return fmt.Errorf("line %v: durable %v, last written %v", l, got, want)
		}
	}
	return nil
}

// checkPersistTraffic requires a persistent system's NVM to have taken
// exactly the persist writes the machine issued, and the baseline to have
// issued none.
func checkPersistTraffic(r *machine.Results) error {
	if r.System == machine.Baseline {
		if r.TotalPersistWrites != 0 || r.PersistWrites != 0 {
			return fmt.Errorf("%s/baseline: %d persist writes, want 0", r.Benchmark, r.TotalPersistWrites)
		}
		return nil
	}
	if n := r.Set.CounterValue("nvm.writes"); n != r.TotalPersistWrites {
		return fmt.Errorf("%s/%s: nvm.writes %d != persist writes %d", r.Benchmark, r.System, n, r.TotalPersistWrites)
	}
	if err := checkDurable(r.Durable, r.LineOrder); err != nil {
		return fmt.Errorf("%s/%s: %w", r.Benchmark, r.System, err)
	}
	return nil
}

// checkOutcomes requires the reached durable outcomes to equal the allowed
// set exactly: an extra outcome is unsound, a missing one uncovered.
func checkOutcomes(reached, allowed []string) error {
	r := append([]string(nil), reached...)
	a := append([]string(nil), allowed...)
	sort.Strings(r)
	sort.Strings(a)
	if strings.Join(r, "\n") != strings.Join(a, "\n") {
		return fmt.Errorf("reached %v, allowed %v", r, a)
	}
	return nil
}

// checkBytes requires a served result to equal the reference bytes.
func checkBytes(got, want []byte) error {
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		return fmt.Errorf("result differs from the reference at byte %d (%d vs %d bytes)", i, len(got), len(want))
	}
	return nil
}
