package sim

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/trace"
)

// deepEqualIgnoreFuncs compares two values structurally, traversing
// unexported fields, with three deliberate deviations from
// reflect.DeepEqual: function values always compare equal (the engine,
// LSQ and front end hold bound callbacks whose closures necessarily
// differ between two machines), nil and empty slices/maps compare equal
// (scratch buffers are allocated lazily and their emptiness, not their
// identity, is the machine state), and floats compare by bit pattern.
// It returns the path of the first difference.
func deepEqualIgnoreFuncs(a, b any) (string, bool) {
	return deepValueEqual("", reflect.ValueOf(a), reflect.ValueOf(b),
		make(map[[2]uintptr]bool))
}

func deepValueEqual(path string, a, b reflect.Value, visited map[[2]uintptr]bool) (string, bool) {
	if a.IsValid() != b.IsValid() {
		return path, false
	}
	if !a.IsValid() {
		return "", true
	}
	if a.Type() != b.Type() {
		return path + " (type)", false
	}
	switch a.Kind() {
	case reflect.Func, reflect.Chan, reflect.UnsafePointer:
		return "", true
	case reflect.Pointer:
		if a.IsNil() != b.IsNil() {
			return path, false
		}
		if a.IsNil() || a.Pointer() == b.Pointer() {
			return "", true
		}
		k := [2]uintptr{a.Pointer(), b.Pointer()}
		if visited[k] {
			return "", true
		}
		visited[k] = true
		return deepValueEqual(path, a.Elem(), b.Elem(), visited)
	case reflect.Interface:
		if a.IsNil() != b.IsNil() {
			return path, false
		}
		if a.IsNil() {
			return "", true
		}
		return deepValueEqual(path, a.Elem(), b.Elem(), visited)
	case reflect.Struct:
		t := a.Type()
		for i := 0; i < a.NumField(); i++ {
			if p, ok := deepValueEqual(path+"."+t.Field(i).Name, a.Field(i), b.Field(i), visited); !ok {
				return p, false
			}
		}
		return "", true
	case reflect.Slice:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s (len %d vs %d)", path, a.Len(), b.Len()), false
		}
		if a.Len() == 0 || a.Pointer() == b.Pointer() {
			return "", true
		}
		fallthrough
	case reflect.Array:
		for i := 0; i < a.Len(); i++ {
			if p, ok := deepValueEqual(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i), visited); !ok {
				return p, false
			}
		}
		return "", true
	case reflect.Map:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s (len %d vs %d)", path, a.Len(), b.Len()), false
		}
		if a.Len() == 0 || a.Pointer() == b.Pointer() {
			return "", true
		}
		if a.Type().Key().Kind() == reflect.Pointer {
			// Keys are object identities (e.g. in-flight uops): two
			// machines never share them, so match keys structurally,
			// each b-key consumed at most once.
			akeys, bkeys := a.MapKeys(), b.MapKeys()
			used := make([]bool, len(bkeys))
		outer:
			for _, ka := range akeys {
				va := a.MapIndex(ka)
				for j, kb := range bkeys {
					if used[j] {
						continue
					}
					// A failed candidate must not pollute the shared
					// visited set, so each attempt gets its own.
					scratch := make(map[[2]uintptr]bool)
					if _, ok := deepValueEqual("", ka, kb, scratch); !ok {
						continue
					}
					if _, ok := deepValueEqual("", va, b.MapIndex(kb), scratch); !ok {
						continue
					}
					used[j] = true
					continue outer
				}
				return fmt.Sprintf("%s[%v] (no structurally equal key)", path, ka), false
			}
			return "", true
		}
		iter := a.MapRange()
		for iter.Next() {
			bv := b.MapIndex(iter.Key())
			if !bv.IsValid() {
				return fmt.Sprintf("%s[%v] (missing key)", path, iter.Key()), false
			}
			if p, ok := deepValueEqual(fmt.Sprintf("%s[%v]", path, iter.Key()), iter.Value(), bv, visited); !ok {
				return p, false
			}
		}
		return "", true
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return path, false
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Sprintf("%s (%d vs %d)", path, a.Int(), b.Int()), false
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			return fmt.Sprintf("%s (%d vs %d)", path, a.Uint(), b.Uint()), false
		}
	case reflect.Float32, reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return fmt.Sprintf("%s (%v vs %v)", path, a.Float(), b.Float()), false
		}
	case reflect.Complex64, reflect.Complex128:
		if a.Complex() != b.Complex() {
			return path, false
		}
	case reflect.String:
		if a.String() != b.String() {
			return fmt.Sprintf("%s (%q vs %q)", path, a.String(), b.String()), false
		}
	}
	return "", true
}

// runSkipPair runs the same workload on the same configuration twice —
// once with event-driven skipping (the default) and once stepping every
// cycle — and returns both results and final engines.
func runSkipPair(t *testing.T, cfg Config, workload string, seed uint64, n, warm int64) (rSkip, rStep *Result, eSkip, eStep *Engine) {
	t.Helper()
	run := func(noSkip bool) (*Result, *Engine) {
		c := cfg
		c.NoSkip = noSkip
		s, err := trace.New(workload, seed)
		if err != nil {
			t.Fatal(err)
		}
		p, err := New(c, s)
		if err != nil {
			t.Fatal(err)
		}
		if warm > 0 {
			p.Warm(s, warm)
		}
		r, err := p.Run(n)
		if err != nil {
			t.Fatal(err)
		}
		return r, p.Engine
	}
	rSkip, eSkip = run(false)
	rStep, eStep = run(true)
	return
}

// requireSkipEquivalence asserts the skip-oracle contract: the full
// statistics dump is byte-identical and the final machines are equal in
// every field other than the skip telemetry itself.
func requireSkipEquivalence(t *testing.T, rSkip, rStep *Result, eSkip, eStep *Engine) {
	t.Helper()
	if eStep.skippedCycles != 0 || eStep.skipWindows != 0 {
		t.Fatalf("NoSkip run skipped %d cycles in %d windows", eStep.skippedCycles, eStep.skipWindows)
	}
	if d1, d2 := rSkip.Stats.String(), rStep.Stats.String(); d1 != d2 {
		t.Errorf("skipping changed the statistics:\n--- skip\n%s\n--- no-skip\n%s", d1, d2)
	}
	// Normalise the telemetry and the knob itself, then require equality
	// of everything else, unexported state included.
	eSkip.skippedCycles, eSkip.skipWindows = 0, 0
	eSkip.cfg.NoSkip, eStep.cfg.NoSkip = false, false
	if p, ok := deepEqualIgnoreFuncs(eSkip, eStep); !ok {
		t.Errorf("final machine state diverged at %s", p)
	}
}

// instantWires turns on the segmented queue's unpipelined-wire ablation,
// which delivers chain-wire signals through its own path.
func instantWires(c Config) Config {
	c.Segmented.InstantWires = true
	return c
}

// TestSkipConformanceGolden runs every golden-test machine with and
// without idle-cycle skipping: the statistics must be byte-identical and
// the final machines equal field by field. The cases where skipping is
// known to elide cycles additionally assert it actually did, so the test
// cannot pass vacuously.
func TestSkipConformanceGolden(t *testing.T) {
	cases := []struct {
		name     string
		cfg      Config
		workload string
		mustSkip bool
	}{
		{"ideal", DefaultConfig(QueueIdeal, 256), "swim", true},
		{"ideal", DefaultConfig(QueueIdeal, 256), "gcc", true},
		{"segmented", SegmentedConfig(256, 64, true, true), "swim", true},
		{"segmented", SegmentedConfig(256, 64, true, true), "gcc", true},
		{"segmented-instant-wires", instantWires(SegmentedConfig(256, 64, true, true)), "swim", true},
		{"segmented-instant-wires", instantWires(SegmentedConfig(256, 64, true, true)), "gcc", true},
		{"prescheduled", PrescheduledConfig(256), "swim", false},
		{"prescheduled", PrescheduledConfig(256), "gcc", true},
		{"fifos", FIFOConfig(256), "swim", true},
		{"fifos", FIFOConfig(256), "gcc", true},
		{"distance", DistanceConfig(256), "swim", true},
		{"distance", DistanceConfig(256), "gcc", true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name+"/"+tc.workload, func(t *testing.T) {
			t.Parallel()
			rSkip, rStep, eSkip, eStep := runSkipPair(t, tc.cfg, tc.workload, 1, 8000, 50000)
			if tc.mustSkip && eSkip.skippedCycles == 0 {
				t.Error("expected the skip run to elide cycles; it elided none")
			}
			requireSkipEquivalence(t, rSkip, rStep, eSkip, eStep)
		})
	}
}

// TestSkipConformanceSweep covers a pinned sweep grid — every design at
// two queue sizes on a third workload — with the same oracle.
func TestSkipConformanceSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep grid conformance is long")
	}
	grids := []struct {
		name string
		cfg  func(size int) Config
	}{
		{"ideal", func(n int) Config { return DefaultConfig(QueueIdeal, n) }},
		{"segmented", func(n int) Config { return SegmentedConfig(n, 64, true, true) }},
		{"prescheduled", PrescheduledConfig},
		{"fifos", FIFOConfig},
		{"distance", DistanceConfig},
	}
	for _, g := range grids {
		for _, size := range []int{64, 256} {
			g, size := g, size
			t.Run(fmt.Sprintf("%s/%d", g.name, size), func(t *testing.T) {
				t.Parallel()
				rSkip, rStep, eSkip, eStep := runSkipPair(t, g.cfg(size), "twolf", 5, 4000, 20000)
				requireSkipEquivalence(t, rSkip, rStep, eSkip, eStep)
			})
		}
	}
}

// TestSkipConformanceSMT runs the skip oracle on a two-context machine:
// shared queue, shared fetch port, per-context front ends and LSQs.
func TestSkipConformanceSMT(t *testing.T) {
	for _, cfg := range []Config{
		DefaultConfig(QueueIdeal, 256),
		SegmentedConfig(256, 64, true, true),
	} {
		cfg := cfg
		t.Run(string(cfg.Queue), func(t *testing.T) {
			t.Parallel()
			run := func(noSkip bool) (*SMTResult, *Engine) {
				c := cfg
				c.NoSkip = noSkip
				res, err := RunSMT(c, []string{"swim", "gcc"}, 1, 12000, 30000)
				if err != nil {
					t.Fatal(err)
				}
				return res, nil
			}
			rSkip, _ := run(false)
			rStep, _ := run(true)
			if d1, d2 := rSkip.Stats.String(), rStep.Stats.String(); d1 != d2 {
				t.Errorf("skipping changed the SMT statistics:\n--- skip\n%s\n--- no-skip\n%s", d1, d2)
			}
		})
	}
}

// TestCheckpointForkSkipConformance forks the same checkpoint twice, one
// fork skipping and one stepping: the forks must stay bit-identical. This
// pins that skipping composes with warm-state checkpoints (the sweep
// harness's fast path) and that Fork treats NoSkip as a free knob rather
// than checkpoint geometry.
func TestCheckpointForkSkipConformance(t *testing.T) {
	ck, err := NewCheckpoint(DistanceConfig(256), ContextSpec{Workload: "swim", Seed: 1, Warm: 50000})
	if err != nil {
		t.Fatal(err)
	}
	run := func(noSkip bool) (*Result, *Engine) {
		cfg := DistanceConfig(256)
		cfg.NoSkip = noSkip
		p, err := ck.Fork(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := p.Run(8000)
		if err != nil {
			t.Fatal(err)
		}
		return r, p.Engine
	}
	rSkip, eSkip := run(false)
	rStep, eStep := run(true)
	if eSkip.skippedCycles == 0 {
		t.Error("expected the skipping fork to elide cycles; it elided none")
	}
	requireSkipEquivalence(t, rSkip, rStep, eSkip, eStep)
}
