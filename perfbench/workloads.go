package main

import (
	iqsim "repro"
	"repro/internal/sim"
)

// spec is one machine driven through sim.NewEngine/Warm/Step: a
// configuration over an ordered context set (context i runs contexts[i]
// seeded with seed+i, the convention of iqsim.RunSMT and the experiments
// grids), warmed warm instructions per context, then stepped until n
// instructions commit in total.
type spec struct {
	cfg      sim.Config
	contexts []string
	n, warm  int64
}

// workload is one fixed input set of the benchmark. A single-run
// workload steps its own spec; a sweep workload runs an experiments grid
// through experiments.RunShard and steps one of its grid points (probe)
// to cross-check the sweep's forked and prefix-shared result against a
// machine built from scratch.
type workload struct {
	name string
	// run is the single-run machine, or for a sweep the probed grid point.
	run spec
	// Sweep workloads only.
	experiment string
	benchmarks []string     // experiments.Options.Benchmarks (nil: the grid's default set)
	probeKey   string       // grid key of run
	gridCfgs   []sim.Config // the grid's distinct configurations, forked once per context set
	// pins maps a seed to the digest of the workload's simulated output
	// at the sizes above: a single run's Result, or a sweep's RunShard
	// file. Seed 1 is the default; seed 7 was held out while the
	// benchmark was tuned. Seeds without a pin are still cross-checked
	// (Step against iqsim.Run, the probe against the sweep, repeats
	// against each other). Swim's generator draws nothing from its seed,
	// so seg_swim has one digest.
	pins map[uint64]string
}

func (w *workload) sweep() bool { return w.experiment != "" }

// fig2Cfgs are the distinct machine configurations of the "fig2" grid:
// the ideal 512-entry queue plus the segmented queue at three chain-wire
// budgets (0 = unlimited) times four predictor variants.
func fig2Cfgs() []sim.Config {
	cfgs := []sim.Config{iqsim.Ideal(512)}
	for _, chains := range []int{0, 128, 64} {
		for _, v := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
			cfgs = append(cfgs, iqsim.Segmented(512, chains, v[0], v[1]))
		}
	}
	return cfgs
}

// smtCfgs are the five designs of the "smt" grid.
func smtCfgs() []sim.Config {
	return []sim.Config{iqsim.Ideal(256), iqsim.Segmented(256, 64, true, true),
		iqsim.Prescheduled(320), iqsim.FIFOBased(256), iqsim.Distance(320)}
}

// workloads are the benchmark's inputs; README.md records why each was
// chosen and which layer it loads.
var workloads = []*workload{
	{
		name: "seg_swim",
		run:  spec{cfg: iqsim.Segmented(512, 128, true, true), contexts: []string{"swim"}, n: 50_000, warm: 300_000},
		pins: map[uint64]string{1: "b87d1c3a57768a102fee3e57", 7: "b87d1c3a57768a102fee3e57"},
	},
	{
		name: "ideal_gcc",
		run:  spec{cfg: iqsim.Ideal(512), contexts: []string{"gcc"}, n: 200_000, warm: 300_000},
		pins: map[uint64]string{1: "04d3843079e53b79182b78e6", 7: "0b541b6b408dafc772e9db0a"},
	},
	{
		name:       "fig2_sweep",
		run:        spec{cfg: iqsim.Segmented(512, 64, true, true), contexts: []string{"mgrid"}, n: 2_000, warm: 20_000},
		experiment: "fig2",
		benchmarks: []string{"equake", "mgrid"},
		probeKey:   "64 chains/comb/mgrid",
		gridCfgs:   fig2Cfgs(),
		pins:       map[uint64]string{1: "2c0e28b352dbe7aa133b09f3", 7: "2f978bb9bed07828be454f8c"},
	},
	{
		name:       "smt_sweep",
		run:        spec{cfg: iqsim.Segmented(256, 64, true, true), contexts: []string{"swim", "twolf"}, n: 40_000, warm: 100_000},
		experiment: "smt",
		probeKey:   "segmented/2ctx/swim+twolf",
		gridCfgs:   smtCfgs(),
		pins:       map[uint64]string{1: "d64f6caf5fea58079505089a", 7: "1d3f441d443271482ee6b2c1"},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
