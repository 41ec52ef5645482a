package sim

import "repro/internal/trace"

// runWarm is the one-context cold run: workload seeded with seed,
// fast-forwarded warm instructions, then n simulated.
func runWarm(cfg Config, workload string, seed uint64, n, warm int64) (*Result, error) {
	return RunContexts(cfg, []ContextSpec{{Workload: workload, Seed: seed, Warm: warm}}, n)
}

// runSMT runs one context per workload, context i seeded with seed+i and
// fast-forwarded warm instructions (iqsim.RunSMT's convention).
func runSMT(cfg Config, workloads []string, seed uint64, n, warm int64) (*Result, error) {
	specs := make([]ContextSpec, len(workloads))
	for i, w := range workloads {
		specs[i] = ContextSpec{Workload: w, Seed: seed + uint64(i), Warm: warm}
	}
	return RunContexts(cfg, specs, n)
}

// newEngine builds a one-context machine over s.
func newEngine(cfg Config, s trace.Stream) (*Engine, error) {
	return NewEngine(cfg, []trace.Stream{s})
}

// mustEngine is newEngine for known-good configurations.
func mustEngine(cfg Config, s trace.Stream) *Engine {
	e, err := newEngine(cfg, s)
	if err != nil {
		panic(err)
	}
	return e
}
