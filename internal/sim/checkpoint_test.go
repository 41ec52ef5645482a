package sim

import (
	"reflect"
	"testing"
)

// forkTestConfigs covers all five queue designs.
func forkTestConfigs() map[string]Config {
	return map[string]Config{
		"ideal":     DefaultConfig(QueueIdeal, 256),
		"segmented": SegmentedConfig(256, 64, true, true),
		"presched":  PrescheduledConfig(320),
		"fifos":     FIFOConfig(128),
		"distance":  DistanceConfig(320),
	}
}

// TestCheckpointForkMatchesColdRun: a run forked from a warmed checkpoint
// must be bit-identical — cycles and every statistic — to a cold run that
// warms from scratch, for every queue design. A second fork from the same
// checkpoint must reproduce it again (forking never mutates the
// checkpoint).
func TestCheckpointForkMatchesColdRun(t *testing.T) {
	const workload, seed, n, warm = "swim", 1, 8000, 50_000
	for name, cfg := range forkTestConfigs() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			cold, err := runWarm(cfg, workload, seed, n, warm)
			if err != nil {
				t.Fatal(err)
			}
			ck, err := NewCheckpoint(cfg, ContextSpec{Workload: workload, Seed: seed, Warm: warm})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				p, err := ck.Fork(cfg)
				if err != nil {
					t.Fatal(err)
				}
				forked, err := p.Run(n)
				if err != nil {
					t.Fatal(err)
				}
				if forked.Cycles != cold.Cycles {
					t.Fatalf("fork %d: cycles %d, cold run %d", i, forked.Cycles, cold.Cycles)
				}
				if !reflect.DeepEqual(forked, cold) {
					t.Fatalf("fork %d: result differs from cold run\nforked: %+v\ncold:   %+v", i, forked.Stats, cold.Stats)
				}
			}
		})
	}
}

// TestCheckpointForkAcrossConfigs: the property the sweep scheduler relies
// on — one checkpoint serves every grid point that shares the memory and
// branch-structure geometry. Forking an ideal-queue checkpoint into each
// other design must match that design's own cold run exactly.
func TestCheckpointForkAcrossConfigs(t *testing.T) {
	const workload, seed, n, warm = "gcc", 3, 6000, 40_000
	ck, err := NewCheckpoint(DefaultConfig(QueueIdeal, 256), ContextSpec{Workload: workload, Seed: seed, Warm: warm})
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range forkTestConfigs() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			cold, err := runWarm(cfg, workload, seed, n, warm)
			if err != nil {
				t.Fatal(err)
			}
			p, err := ck.Fork(cfg)
			if err != nil {
				t.Fatal(err)
			}
			forked, err := p.Run(n)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(forked, cold) {
				t.Fatalf("forked result differs from cold run\nforked: %+v\ncold:   %+v", forked.Stats, cold.Stats)
			}
		})
	}
}

// TestCheckpointGeometryValidation: forks that would invalidate the
// warmed state are rejected.
func TestCheckpointGeometryValidation(t *testing.T) {
	ck, err := NewCheckpoint(DefaultConfig(QueueIdeal, 128), ContextSpec{Workload: "gcc", Seed: 1, Warm: 1000})
	if err != nil {
		t.Fatal(err)
	}
	badMem := DefaultConfig(QueueIdeal, 128)
	badMem.Memory.L1D.Size *= 2
	if _, err := ck.Fork(badMem); err == nil {
		t.Error("memory-geometry change accepted")
	}
	badBTB := DefaultConfig(QueueIdeal, 128)
	badBTB.BTBEntries = 512
	if _, err := ck.Fork(badBTB); err == nil {
		t.Error("BTB-geometry change accepted")
	}
	badQ := DefaultConfig(QueueIdeal, 128)
	badQ.Queue = "nonsense"
	if _, err := ck.Fork(badQ); err == nil {
		t.Error("invalid config accepted")
	}
}

// TestEngineCloneRunsIdentically: cloning a freshly forked machine
// yields an independent twin; both runs produce identical results.
func TestEngineCloneRunsIdentically(t *testing.T) {
	cfg := SegmentedConfig(128, 64, false, false)
	ck, err := NewCheckpoint(cfg, ContextSpec{Workload: "vortex", Seed: 2, Warm: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	p, err := ck.Fork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := p.CloneActive()
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.Run(5000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := twin.Run(5000)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("clone diverged\noriginal: %+v\nclone:    %+v", a.Stats, b.Stats)
	}
}
