package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestIndexInvariantsInMachine runs full machines — workloads and seeds
// drawn from a seeded generator — and checks the segmented queue's
// per-wire indexes after every cycle (and every skipped window).
func TestIndexInvariantsInMachine(t *testing.T) {
	withSeg := func(c sim.Config, f func(*core.Config)) sim.Config {
		f(&c.Segmented)
		return c
	}
	cases := []struct {
		name     string
		cfg      sim.Config
		contexts int
	}{
		{"512-unlimited", sim.SegmentedConfig(512, 0, true, true), 1},
		{"512-64", sim.SegmentedConfig(512, 64, false, false), 1},
		{"no-bypass", withSeg(sim.SegmentedConfig(256, 32, true, true), func(c *core.Config) { c.Bypass = false }), 1},
		{"instant-wires", withSeg(sim.SegmentedConfig(256, 64, true, false), func(c *core.Config) { c.InstantWires = true }), 1},
		{"smt2", sim.SegmentedConfig(512, 128, true, true), 2},
	}
	names := trace.Names()
	rng := rand.New(rand.NewSource(14))
	for _, tc := range cases {
		workloads := make([]string, tc.contexts)
		for i := range workloads {
			workloads[i] = names[rng.Intn(len(names))]
		}
		seed := uint64(rng.Intn(100))
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			streams := make([]trace.Stream, len(workloads))
			for i, w := range workloads {
				s, err := trace.New(w, seed+uint64(i))
				if err != nil {
					t.Fatal(err)
				}
				streams[i] = s
			}
			e, err := sim.NewEngine(tc.cfg, streams)
			if err != nil {
				t.Fatal(err)
			}
			e.Warm(streams, 20_000)
			q := e.Queue().(*core.SegmentedIQ)
			for e.Committed() < 6_000 {
				e.Step()
				if err := q.CheckIndex(); err != nil {
					t.Fatalf("%v seed %d, cycle %d: %v", workloads, seed, e.Cycle(), err)
				}
			}
		})
	}
}
