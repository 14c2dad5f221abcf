package main

import (
	"bytes"
	"fmt"
	"strings"

	"repro/internal/machine"
	"repro/internal/program"
	"repro/internal/sim"
	"repro/internal/trace"
)

// sweepPrograms are the library programs that are not copies of a profile.
var sweepPrograms = []string{"producer-consumer-ring", "work-stealing-deque", "log-structured-writer"}

// heapRechecks is how many cells the finish re-runs on the heap scheduler.
const heapRechecks = 3

// cell is one simulation of the paper's evaluation matrix.
type cell struct {
	profile trace.Profile
	prog    *program.Program // program cells only
	system  machine.SystemKind
	proto   machine.CoherenceKind
}

func (c cell) name() string {
	n := c.profile.Name
	if c.prog != nil {
		n = c.prog.Name
	}
	return fmt.Sprintf("%s/%s/%s", n, c.system, c.proto)
}

// paperSweep runs the paper's evaluation matrix one cell at a time at full
// scale: every profile on every system over SLC, TSOPER over MESI and
// Tardis, and TSOPER on the library programs the profiles cannot express.
type paperSweep struct {
	traceSeed int64
	cells     []cell

	// round results, indexed like cells
	cycles  []uint64
	drains  []uint64
	nvmExec []uint64
	// layer accumulates the per-layer simulated counts of the first
	// round; acc the sums and counts behind its means.
	layer, acc map[string]float64
	// heapPick are the cells the finish re-runs on the heap scheduler;
	// snaps their Snapshot JSON from the first round.
	heapPick []int
	snaps    map[int][]byte
	advCyc   float64 // simulated cycles driven through Advance, per round
}

func newPaperSweep(seed int64) *paperSweep {
	return &paperSweep{traceSeed: subSeed(seed, 1)}
}

func (p *paperSweep) setup(b *bench) error {
	var cells []cell
	for _, prof := range trace.Benchmarks() {
		for _, k := range machine.Systems() {
			cells = append(cells, cell{profile: prof, system: k, proto: machine.CoherenceSLC})
		}
		for _, proto := range []machine.CoherenceKind{machine.CoherenceMESI, machine.CoherenceTardis} {
			cells = append(cells, cell{profile: prof, system: machine.TSOPER, proto: proto})
		}
	}
	for _, name := range sweepPrograms {
		prog, err := program.ByName(name)
		if err != nil {
			return err
		}
		cells = append(cells, cell{prog: prog, system: machine.TSOPER, proto: machine.CoherenceSLC})
	}
	p.cells = cells
	p.heapPick = nil
	for i := 0; i < heapRechecks; i++ {
		p.heapPick = append(p.heapPick, int(uint64(subSeed(b.seed, 100+i))%uint64(len(cells))))
	}
	// Warm-up: one full-scale cell, so lazy runtime set-up is paid here.
	_, _, _, err := runCell(cells[len(machine.Systems())-1], p.traceSeed, sim.SchedulerWheel, nil)
	return err
}

// runCell simulates one cell and returns the results, the workload and
// the Snapshot JSON. With a tracer it records a span around each layer
// call.
func runCell(c cell, seed int64, sched sim.SchedulerKind, tr *tracer) (*machine.Results, *trace.Workload, []byte, error) {
	if tr == nil {
		tr = newTracer(false)
	}
	cfg := machine.TableI(c.system)
	cfg.Coherence = c.proto
	cfg.Scheduler = sched
	var w *trace.Workload
	var err error
	if c.prog != nil {
		tr.do("program.compile", "", func() {
			w, err = c.prog.Compile(program.Env{Cores: cfg.Cores, Ranks: cfg.NVM.Ranks}, seed)
		})
	} else {
		tr.do("trace.generate", "", func() { w = trace.Generate(c.profile, cfg.Cores, seed) })
	}
	if err != nil {
		return nil, nil, nil, err
	}
	var m *machine.Machine
	tr.do("machine.new", "", func() { m, err = machine.New(cfg) })
	if err != nil {
		return nil, nil, nil, err
	}
	var done bool
	tr.do("machine.advance", c.proto.String(), func() {
		m.Start(w)
		done, err = m.Advance(sim.MaxTime)
	})
	if err != nil {
		return nil, nil, nil, err
	}
	if !done {
		return nil, nil, nil, fmt.Errorf("run did not finish")
	}
	var r *machine.Results
	tr.do("machine.results", "", func() { r = m.Results() })
	var buf bytes.Buffer
	tr.do("telemetry.snapshot", "", func() { err = r.Snapshot().WriteJSON(&buf) })
	return r, w, buf.Bytes(), err
}

func (p *paperSweep) round(b *bench) error {
	first := p.cycles == nil
	n := len(p.cells)
	cycles, drains, nvm := make([]uint64, n), make([]uint64, n), make([]uint64, n)
	if first {
		p.snaps = map[int][]byte{}
		p.layer, p.acc = map[string]float64{}, map[string]float64{}
	}
	p.advCyc = 0
	for i, c := range p.cells {
		var r *machine.Results
		var w *trace.Workload
		var snap []byte
		b.item("cell", func() error {
			var err error
			r, w, snap, err = runCell(c, p.traceSeed, sim.SchedulerWheel, b.tr)
			return err
		})
		if r == nil {
			continue
		}
		b.untimed(func() {
			b.check(checkOpCounts(w, r))
			b.check(checkPersistTraffic(r))
			cycles[i], drains[i], nvm[i] = uint64(r.Cycles), uint64(r.DrainCycles), r.NVMWrites
			p.advCyc += float64(r.DrainCycles)
			if first {
				p.observe(c, r)
				for _, h := range p.heapPick {
					if h == i {
						p.snaps[i] = snap
					}
				}
			}
		})
	}
	if first {
		p.cycles, p.drains, p.nvmExec = cycles, drains, nvm
		return nil
	}
	// The simulator is deterministic: every round repeats the first.
	for i := range cycles {
		if cycles[i] != p.cycles[i] || drains[i] != p.drains[i] || nvm[i] != p.nvmExec[i] {
			b.check(fmt.Errorf("%s: round %d differs from round 1", p.cells[i].name(), b.rounds+1))
		}
	}
	return nil
}

// observe accumulates the per-layer simulated counts of one cell.
func (p *paperSweep) observe(c cell, r *machine.Results) {
	L := p.layer
	if c.prog == nil && c.proto == machine.CoherenceSLC {
		L["sim.cycles."+metricName(c.system.String())] += float64(r.Cycles)
	}
	if c.prog != nil || c.system != machine.TSOPER {
		return
	}
	if c.proto != machine.CoherenceSLC {
		L["sim.cycles.tsoper-"+c.proto.String()] += float64(r.Cycles)
		if c.proto == machine.CoherenceTardis {
			for _, k := range []string{"tardis.renewals", "tardis.lease_hits", "tardis.ts_jumps"} {
				L[k] += float64(r.Set.CounterValue(k))
			}
		}
		return
	}
	snap := r.Snapshot()
	L["sim.drain_tail_cycles.tsoper"] += float64(r.DrainCycles - r.Cycles)
	L["core.ag_count"] += float64(snap.Dists["ag.size"].Count)
	L["agb.reservation_stalls"] += float64(r.AGBStalls)
	L["cache.evict_buf_stalls"] += float64(r.EvictBufStalls)
	for _, k := range []string{"nvm.writes", "nvm.reads", "noc.messages", "noc.hops",
		"traffic.coherence_writes", "traffic.persist_writes"} {
		L[k] += float64(snap.Counters[k])
	}
	for name, rs := range snap.Resources {
		switch {
		case strings.HasPrefix(name, "nvm."):
			L["nvm.busy_cycles"] += float64(rs.BusyCycles)
		case strings.HasPrefix(name, "noc."):
			L["noc.busy_cycles"] += float64(rs.BusyCycles)
		}
	}
	for _, d := range []string{"ag.size", "agb.occupancy_lines", "slc.persist_list_len", "slc.invalidation_walk"} {
		p.acc[d+".sum"] += float64(snap.Dists[d].Sum)
		p.acc[d+".n"] += float64(snap.Dists[d].Count)
	}
}

func (p *paperSweep) finish(b *bench) error {
	// Re-run a few cells on the heap reference scheduler: the Snapshot JSON
	// must be byte-identical to the wheel run's.
	for _, i := range p.heapPick {
		_, _, snap, err := runCell(p.cells[i], p.traceSeed, sim.SchedulerHeap, nil)
		if err != nil {
			return err
		}
		if want, ok := p.snaps[i]; ok {
			if err := checkBytes(snap, want); err != nil {
				b.check(fmt.Errorf("%s heap vs wheel: %w", p.cells[i].name(), err))
			}
		}
	}

	idx := map[string]int{}
	for i, c := range p.cells {
		idx[c.name()] = i
	}
	var figs []paperFigures
	for _, prof := range trace.Benchmarks() {
		key := func(k machine.SystemKind, proto machine.CoherenceKind) int {
			return idx[cell{profile: prof, system: k, proto: proto}.name()]
		}
		base, ts, td := key(machine.Baseline, machine.CoherenceSLC), key(machine.TSOPER, machine.CoherenceSLC),
			key(machine.TSOPER, machine.CoherenceTardis)
		figs = append(figs, paperFigures{baseCycles: p.cycles[base], tsCycles: p.cycles[ts],
			tsDrain: p.drains[ts], tsNVM: p.nvmExec[ts], tardisDrain: p.drains[td]})
	}
	setPaperMetrics(b, figs)

	for k, v := range p.layer {
		b.layer[k] = v
	}
	mean := func(d string) float64 { return ratio(p.acc[d+".sum"], p.acc[d+".n"]) }
	b.layer["core.ag_mean_lines"] = mean("ag.size")
	b.layer["agb.occupancy_mean"] = mean("agb.occupancy_lines")
	b.layer["slc.persist_list_len_mean"] = mean("slc.persist_list_len")
	b.layer["slc.invalidation_walk_mean"] = mean("slc.invalidation_walk")
	b.layer["machine.new_calls"] = float64(len(p.cells))
	if st := b.tr.stats(false)["machine.advance"]; st.cpu > 0 {
		b.layer["machine.mcycles_per_cpu_s"] = p.advCyc * float64(b.rounds) / st.cpu / 1e6
	}
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metricName maps a system name onto the metric-name alphabet.
func metricName(s string) string { return strings.ReplaceAll(s, "+", "-") }

// paperFigures are one profile's inputs to the three simulated end-to-end
// metrics: baseline/SLC, TSOPER/SLC and TSOPER/Tardis.
type paperFigures struct {
	baseCycles, tsCycles, tsDrain, tsNVM, tardisDrain uint64
}

// setPaperMetrics sets tsoper_norm_exec (Figure 11's TSOPER bar, geomean),
// tsoper_nvm_writes (Figure 14's TSOPER persist traffic, summed) and
// tardis_norm_drain (the bake-off's Tardis/SLC drain horizon, geomean).
func setPaperMetrics(b *bench, figs []paperFigures) {
	var normExec, normDrain []float64
	var nvmWrites float64
	for _, f := range figs {
		normExec = append(normExec, float64(f.tsCycles)/float64(f.baseCycles))
		normDrain = append(normDrain, float64(f.tardisDrain)/float64(f.tsDrain))
		nvmWrites += float64(f.tsNVM)
	}
	b.e2e["tsoper_norm_exec"] = geomean(normExec)
	b.e2e["tsoper_nvm_writes"] = nvmWrites
	b.e2e["tardis_norm_drain"] = geomean(normDrain)
}

// paperProbe runs, outside the timed phase, the three full-scale cells per
// profile behind the simulated metrics, on the inputs paper-sweep
// generates from the same seed: oracles and serve report the same values
// for the same seed as paper-sweep does.
func paperProbe(b *bench) error {
	seed := newPaperSweep(b.seed).traceSeed
	var figs []paperFigures
	for _, p := range trace.Benchmarks() {
		var rs [3]*machine.Results
		for i, c := range []cell{
			{profile: p, system: machine.Baseline, proto: machine.CoherenceSLC},
			{profile: p, system: machine.TSOPER, proto: machine.CoherenceSLC},
			{profile: p, system: machine.TSOPER, proto: machine.CoherenceTardis},
		} {
			r, w, _, err := runCell(c, seed, sim.SchedulerWheel, nil)
			if err != nil {
				return fmt.Errorf("probe %s: %w", c.name(), err)
			}
			b.check(checkOpCounts(w, r))
			b.check(checkPersistTraffic(r))
			rs[i] = r
		}
		figs = append(figs, paperFigures{baseCycles: uint64(rs[0].Cycles), tsCycles: uint64(rs[1].Cycles),
			tsDrain: uint64(rs[1].DrainCycles), tsNVM: rs[1].NVMWrites, tardisDrain: uint64(rs[2].DrainCycles)})
	}
	setPaperMetrics(b, figs)
	return nil
}
