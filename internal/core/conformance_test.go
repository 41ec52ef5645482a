package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/iq"
	"repro/internal/iq/iqtest"
)

// The fuzz harness drives the segmented queue, in several configurations,
// through random dependence DAGs, checking conservation, readiness at
// issue and liveness (deadlock recovery included).
func TestConformanceFuzz(t *testing.T) {
	cfgs := map[string]core.Config{
		"default-unlimited": core.DefaultConfig(128, 0),
		"tight-chains": func() core.Config {
			c := core.DefaultConfig(128, 8)
			return c
		}(),
		"tiny-segments": {
			Segments: 8, SegSize: 4, IssueWidth: 4, MaxChains: 6,
			Pushdown: true, Bypass: true, DeadlockRecovery: true,
			PredictedLoadLatency: 4,
		},
		"no-bypass-no-pushdown": {
			Segments: 4, SegSize: 16, IssueWidth: 8, MaxChains: 16,
			DeadlockRecovery: true, PredictedLoadLatency: 4,
		},
		"predictors": func() core.Config {
			c := core.DefaultConfig(128, 32)
			c.UseHMP, c.UseLRP = true, true
			return c
		}(),
		"instant-wires": func() core.Config {
			c := core.DefaultConfig(128, 32)
			c.InstantWires = true
			return c
		}(),
	}
	for name, cfg := range cfgs {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			iqtest.Fuzz(t, func() iq.Queue { return core.MustNew(cfg) }, iqtest.DefaultOptions())
		})
	}
}

// Mid-run clones of the segmented queue — resident entries, allocated
// chains, in-flight wire signals — must behave identically to the
// original from the clone point on.
func TestCloneFuzz(t *testing.T) {
	cfgs := map[string]core.Config{
		"default-unlimited": core.DefaultConfig(128, 0),
		"tight-chains":      core.DefaultConfig(128, 8),
		"predictors": func() core.Config {
			c := core.DefaultConfig(128, 32)
			c.UseHMP, c.UseLRP = true, true
			return c
		}(),
		"instant-wires": func() core.Config {
			c := core.DefaultConfig(128, 32)
			c.InstantWires = true
			return c
		}(),
	}
	for name, cfg := range cfgs {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			iqtest.CloneFuzz(t, func() iq.Queue { return core.MustNew(cfg) }, iqtest.DefaultOptions())
		})
	}
}
