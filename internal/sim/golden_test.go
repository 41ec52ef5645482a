package sim

import (
	"testing"
)

// TestGoldenCycleCounts pins the exact cycle and instruction counts of a
// fixed short run for every queue design. These are behavioural goldens:
// performance work on the hot paths (scratch-buffer reuse, closure
// hoisting, event-queue and MSHR pooling) must leave the simulated machine
// cycle-identical, and any intentional model change must update these
// values consciously.
func TestGoldenCycleCounts(t *testing.T) {
	cases := []struct {
		name          string
		cfg           Config
		workload      string
		cycles, insts int64
	}{
		{"ideal", DefaultConfig(QueueIdeal, 256), "swim", 5005, 8007},
		{"ideal", DefaultConfig(QueueIdeal, 256), "gcc", 12796, 8002},
		{"segmented", SegmentedConfig(256, 64, true, true), "swim", 5945, 8007},
		{"segmented", SegmentedConfig(256, 64, true, true), "gcc", 13243, 8002},
		{"prescheduled", PrescheduledConfig(256), "swim", 28603, 8003},
		{"prescheduled", PrescheduledConfig(256), "gcc", 14748, 8001},
		{"fifos", FIFOConfig(256), "swim", 5278, 8007},
		{"fifos", FIFOConfig(256), "gcc", 12796, 8002},
		{"distance", DistanceConfig(256), "swim", 10355, 8007},
		{"distance", DistanceConfig(256), "gcc", 13647, 8006},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name+"/"+tc.workload, func(t *testing.T) {
			t.Parallel()
			r, err := runWarm(tc.cfg, tc.workload, 1, 8000, 50000)
			if err != nil {
				t.Fatal(err)
			}
			if r.Cycles != tc.cycles || r.Instructions != tc.insts {
				t.Errorf("got cycles=%d insts=%d, want cycles=%d insts=%d",
					r.Cycles, r.Instructions, tc.cycles, tc.insts)
			}
		})
	}
}

// TestRunDeterminism runs every design twice with an identical
// configuration, seed and workload, and requires the full statistics dump
// to be byte-identical — the property every experiment in the repository
// (and the golden test above) quietly depends on.
func TestRunDeterminism(t *testing.T) {
	kinds := []Config{
		DefaultConfig(QueueIdeal, 128),
		SegmentedConfig(128, 32, true, true),
		PrescheduledConfig(128),
		FIFOConfig(128),
		DistanceConfig(128),
	}
	for _, cfg := range kinds {
		cfg := cfg
		t.Run(string(cfg.Queue), func(t *testing.T) {
			t.Parallel()
			r1, err := runWarm(cfg, "swim", 3, 3000, 10000)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := runWarm(cfg, "swim", 3, 3000, 10000)
			if err != nil {
				t.Fatal(err)
			}
			d1, d2 := r1.Stats.String(), r2.Stats.String()
			if d1 != d2 {
				t.Errorf("two identical runs diverged:\n--- run 1\n%s\n--- run 2\n%s", d1, d2)
			}
		})
	}
}
