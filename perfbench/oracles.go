package main

import (
	"fmt"

	"repro/internal/crashmc"
	"repro/internal/litmus"
	"repro/internal/machine"
	"repro/tsoper"
)

// Sizes of the oracle parts, as the test suite drives them.
const (
	campaignPoints = 50 // crash points per campaign cell
	mutateBudget   = 60 // harvested points offered to each mutation pass
	directBudget   = 24 // harvested points per direct-check cell
	directPoints   = 4  // of which the direct check crashes at this many
)

var strictSystems = []machine.SystemKind{machine.TSOPER, machine.STW}

// oracles runs the correctness oracles: the litmus corpus through the
// explorer on every protocol, event-harvested crash campaigns, the checker
// mutation pass, and direct crash checks at harvested points.
type oracles struct {
	seed int64

	tests   []*litmus.Test
	allowed map[string][]string // test name -> outcomes the Px86 model allows
	mutPts  map[machine.SystemKind][]uint64
	direct  []directCell

	points, machines, injections, partial, checks int
}

type directCell struct {
	adv    tsoper.Profile
	proto  machine.CoherenceKind
	points []uint64
}

func newOracles(seed int64) *oracles { return &oracles{seed: subSeed(seed, 2)} }

func (o *oracles) setup(b *bench) error {
	tests, err := litmus.Corpus()
	if err != nil {
		return err
	}
	o.tests = tests
	o.allowed = map[string][]string{}
	for _, t := range tests {
		var allowed []string
		b.tr.do("litmus.model", "", func() { allowed, err = t.AllowedOutcomes() })
		if err != nil {
			return fmt.Errorf("%s: %w", t.Name, err)
		}
		o.allowed[t.Name] = allowed
	}
	// Mutation points: newest first plus the horizon, so late crashes with
	// rich journals come first.
	o.mutPts = map[machine.SystemKind][]uint64{}
	for _, k := range strictSystems {
		var pts []uint64
		var horizon uint64
		b.tr.do("crashmc.harvest", "", func() {
			pts, horizon = crashmc.Harvest(crashmc.Adversaries()[0], machine.TableI(k), o.seed, mutateBudget)
		})
		rev := []uint64{horizon}
		for i := len(pts) - 1; i >= 0; i-- {
			rev = append(rev, pts[i])
		}
		o.mutPts[k] = rev
	}
	o.direct = nil
	for _, adv := range crashmc.Adversaries() {
		for _, proto := range machine.Coherences() {
			cfg := machine.TableI(machine.TSOPER)
			cfg.Coherence = proto
			var pts []uint64
			b.tr.do("crashmc.harvest", "", func() { pts, _ = crashmc.Harvest(adv, cfg, o.seed, directBudget) })
			var pick []uint64
			for i := 0; i < directPoints && len(pts) > 0; i++ {
				pick = append(pick, pts[i*len(pts)/directPoints])
			}
			o.direct = append(o.direct, directCell{adv: adv, proto: proto, points: pick})
		}
	}
	return nil
}

func (o *oracles) round(b *bench) error {
	o.points, o.machines, o.injections, o.partial, o.checks = 0, 0, 0, 0, 0
	for _, proto := range machine.Coherences() {
		for _, t := range o.tests {
			opts := litmus.Default()
			opts.Coherence = proto
			var r *litmus.Result
			b.item("explore", func() error {
				b.tr.do("litmus.explore", proto.String(), func() { r = litmus.Explore(t, opts) })
				return r.Err()
			})
			b.untimed(func() {
				o.points += r.Points
				// Explore builds one machine per perturbation's harvest run
				// and one per crash point.
				o.machines += r.Points + r.Perturbs
				if err := checkOutcomes(r.Reached, o.allowed[t.Name]); err != nil {
					b.check(fmt.Errorf("litmus %s on %s: %w", t.Name, proto, err))
				}
				if b.tr.on {
					// Probe: the per-call cost of the machine construction
					// Explore repeats at every crash point.
					cfg := machine.TableI(machine.TSOPER)
					cfg.Cores = len(t.Cores)
					cfg.Coherence = proto
					b.tr.do("machine.new", "", func() { _, _ = machine.New(cfg) })
				}
			})
		}
		for _, adv := range crashmc.Adversaries() {
			for _, k := range strictSystems {
				spec := crashmc.Spec{Name: "oracles", Benchmarks: []tsoper.Profile{adv},
					Systems: []machine.SystemKind{k}, Seed: o.seed, Points: campaignPoints,
					Strategy: crashmc.StrategyEvents, Parallel: 1, Coherence: proto}
				b.item("campaign", func() error {
					var rep *crashmc.Report
					var err error
					b.tr.do("crashmc.run", proto.String(), func() { rep, err = crashmc.Run(spec) })
					if err != nil {
						return err
					}
					if !rep.Clean() {
						return fmt.Errorf("%s/%s/%s: %d violations", adv.Name, k, proto, len(rep.Violations))
					}
					if rep.Injections != campaignPoints {
						return fmt.Errorf("%s/%s/%s: %d injections, asked for %d", adv.Name, k, proto, rep.Injections, campaignPoints)
					}
					o.injections += rep.Injections
					o.partial += rep.PartialStates
					return nil
				})
			}
		}
	}
	for _, k := range strictSystems {
		b.item("mutate", func() error {
			var kills []crashmc.Kill
			var err error
			b.tr.do("crashmc.mutate", "", func() {
				kills, err = crashmc.Mutate(crashmc.Adversaries()[0], k, machine.TableI(k), o.seed, o.mutPts[k])
			})
			if err != nil {
				return err
			}
			if len(kills) != len(machine.Faults()) {
				return fmt.Errorf("%s: %d kills for %d faults", k, len(kills), len(machine.Faults()))
			}
			for _, kl := range kills {
				if !kl.Killed {
					return fmt.Errorf("%s: mutant %s survived", k, kl.Fault)
				}
			}
			return nil
		})
	}
	for _, dc := range o.direct {
		b.item("crash-check", func() error {
			for _, at := range dc.points {
				var cs *tsoper.CrashState
				var err error
				b.tr.do("machine.crash", dc.proto.String(), func() {
					cs, err = tsoper.Crash(dc.adv, tsoper.TSOPER, at, tsoper.RunOptions{Seed: o.seed, Protocol: dc.proto})
				})
				if err != nil {
					return err
				}
				b.tr.do("checker.check", "", func() { err = tsoper.Check(cs) })
				if err != nil {
					return fmt.Errorf("%s/%s at %d: %w", dc.adv.Name, dc.proto, at, err)
				}
				o.checks++
			}
			return nil
		})
	}
	return nil
}

func (o *oracles) finish(b *bench) error {
	b.layer["litmus.points"] = float64(o.points)
	b.layer["machine.new_calls"] = float64(o.machines)
	b.layer["crashmc.injections"] = float64(o.injections)
	b.layer["crashmc.partial_states"] = float64(o.partial)
	b.layer["checker.checks"] = float64(o.checks)
	return paperProbe(b)
}
