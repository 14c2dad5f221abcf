package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"repro/internal/litmus"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Each output check must reject a corrupted output and accept the real one.

func TestCheckBytesRejectsFlippedByte(t *testing.T) {
	spec := service.JobSpec{Bench: "radix", System: "tsoper", Scale: 0.05, Seed: 7}
	ref, err := reference(spec)
	if err != nil {
		t.Fatal(err)
	}
	again, err := reference(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkBytes(again, ref); err != nil {
		t.Fatalf("identical runs rejected: %v", err)
	}
	for _, at := range []int{0, len(ref) / 2, len(ref) - 1} {
		bad := append([]byte(nil), ref...)
		bad[at] ^= 0x01
		if checkBytes(bad, ref) == nil {
			t.Fatalf("flipped byte %d accepted", at)
		}
	}
}

func TestCheckOutcomesRejectsExtraOutcome(t *testing.T) {
	tests, err := litmus.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	tc := tests[0]
	allowed, err := tc.AllowedOutcomes()
	if err != nil {
		t.Fatal(err)
	}
	r := litmus.Explore(tc, litmus.Default())
	if err := checkOutcomes(r.Reached, allowed); err != nil {
		t.Fatalf("the explorer's reached set rejected: %v", err)
	}
	extra := append(append([]string(nil), r.Reached...), "x=99")
	if checkOutcomes(extra, allowed) == nil {
		t.Fatal("extra outcome accepted")
	}
	if len(r.Reached) > 1 && checkOutcomes(r.Reached[1:], allowed) == nil {
		t.Fatal("missing outcome accepted")
	}
}

func TestCheckDurableRejectsMissingLastVersion(t *testing.T) {
	p, _ := trace.ByName("radix")
	r, w, _, err := runCell(cell{profile: p.Scale(0.05), system: machine.TSOPER}, 5, sim.SchedulerWheel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkOpCounts(w, r); err != nil {
		t.Fatal(err)
	}
	if err := checkPersistTraffic(r); err != nil {
		t.Fatalf("correct run rejected: %v", err)
	}
	var victim mem.Line
	for l, vs := range r.LineOrder {
		if len(vs) > 1 {
			victim = l
			break
		}
	}
	durable := map[mem.Line]mem.Version{}
	for l, v := range r.Durable {
		durable[l] = v
	}
	delete(durable, victim)
	if checkDurable(durable, r.LineOrder) == nil {
		t.Fatal("image missing a line accepted")
	}
	vs := r.LineOrder[victim]
	durable[victim] = vs[len(vs)-2]
	if checkDurable(durable, r.LineOrder) == nil {
		t.Fatal("image holding a stale version accepted")
	}
	r.Loads++
	if checkOpCounts(w, r) == nil {
		t.Fatal("wrong load count accepted")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	// == [2.75, 5.5, 8.25]; for [1, 2] it is [0.75, 1.5, 2.25].
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Fatalf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// The metric definitions the benchmark prints and BENCHMARK.json agree.
func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] {
			t.Fatalf("workload %d: %q vs %q", i, w.Name, workloadNames[i])
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts differ: %d/%d vs %d/%d", len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range doc.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || math.Abs(m.Bound-d.bound) > 1e-12 {
			t.Fatalf("end_to_end %d: %+v vs %+v", i, m, d)
		}
	}
	for i, m := range doc.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Fatalf("per_layer %d: %+v vs %+v", i, m, d)
		}
	}
}
