package sim

import (
	"reflect"
	"testing"

	"repro/internal/trace"
)

// The SMT golden numbers below pin the multi-context engine's
// cycle-exact behaviour for 2- and 4-thread mixes. They were recaptured
// when warmup switched from sequential (one context fully warmed before
// the next) to round-robin (one instruction per context per turn,
// matching live SMT fetch rotation) — shared cache and predictor warm
// state interleaves differently, so all four counts moved. Any change
// here is a behaviour change of the shared-queue SMT model and needs the
// same scrutiny as the single-thread golden numbers.
func TestSMTGoldenCycleCounts(t *testing.T) {
	cases := []struct {
		name      string
		cfg       Config
		workloads []string
		n, warm   int64

		cycles       int64
		instructions int64
		perThread    []int64
	}{
		{
			name:      "segmented2_swim_gcc",
			cfg:       SegmentedConfig(256, 64, true, true),
			workloads: []string{"swim", "gcc"},
			n:         16000, warm: 50000,
			cycles: 10050, instructions: 16000,
			perThread: []int64{12925, 3075},
		},
		{
			name:      "segmented4_swim_gcc",
			cfg:       SegmentedConfig(256, 64, true, true),
			workloads: []string{"swim", "gcc", "swim", "gcc"},
			n:         32000, warm: 50000,
			cycles: 15814, instructions: 32007,
			perThread: []int64{12108, 3944, 12112, 3843},
		},
		{
			name:      "ideal2_swim_gcc",
			cfg:       DefaultConfig(QueueIdeal, 256),
			workloads: []string{"swim", "gcc"},
			n:         16000, warm: 50000,
			cycles: 8034, instructions: 16001,
			perThread: []int64{12635, 3366},
		},
		{
			name:      "ideal4_swim_gcc",
			cfg:       DefaultConfig(QueueIdeal, 256),
			workloads: []string{"swim", "gcc", "swim", "gcc"},
			n:         32000, warm: 50000,
			cycles: 10810, instructions: 32007,
			perThread: []int64{10451, 5706, 10443, 5407},
		},
		{
			// Four contexts share one prescheduling array; swim's misses
			// wedge the issue buffer with campers.
			name:      "presched4_swim_twolf",
			cfg:       PrescheduledConfig(320),
			workloads: []string{"swim", "twolf", "swim", "twolf"},
			n:         32000, warm: 50000,
			cycles: 62413, instructions: 32000,
			perThread: []int64{13021, 3176, 12943, 2860},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			res, err := runSMT(tc.cfg, tc.workloads, 1, tc.n, tc.warm)
			if err != nil {
				t.Fatalf("RunSMT: %v", err)
			}
			if res.Cycles != tc.cycles {
				t.Errorf("cycles = %d, want %d", res.Cycles, tc.cycles)
			}
			if res.Instructions != tc.instructions {
				t.Errorf("instructions = %d, want %d", res.Instructions, tc.instructions)
			}
			if !reflect.DeepEqual(res.PerThread, tc.perThread) {
				t.Errorf("per-thread = %v, want %v", res.PerThread, tc.perThread)
			}
		})
	}
}

// TestSMTFetchPortAfterDrain pins the fetch-port hand-off when a context's
// trace runs dry mid-run: a drained context must yield the shared fetch
// port to the remaining ones instead of consuming it with a no-op fetch.
// Thread 0 runs a short finite trace that drains early; thread 1 runs a
// long one. (The rotation bug this pins against — breaking out of the
// port scan on a Done() context — starved thread 1 of roughly half its
// fetch cycles once thread 0 finished.)
func TestSMTFetchPortAfterDrain(t *testing.T) {
	short, err := trace.New("swim", 1)
	if err != nil {
		t.Fatal(err)
	}
	long, err := trace.New("gcc", 2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewEngine(DefaultConfig(QueueIdeal, 256),
		[]trace.Stream{trace.Limit(short, 1500), long})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(10000)
	if err != nil {
		t.Fatal(err)
	}
	const wantCycles, wantInsts = 64919, 10000
	wantPerThread := []int64{1500, 8500}
	if res.Cycles != wantCycles {
		t.Errorf("cycles = %d, want %d", res.Cycles, wantCycles)
	}
	if res.Instructions != wantInsts {
		t.Errorf("instructions = %d, want %d", res.Instructions, wantInsts)
	}
	if !reflect.DeepEqual(res.PerThread, wantPerThread) {
		t.Errorf("per-thread = %v, want %v", res.PerThread, wantPerThread)
	}
	if res.PerThread[0] != 1500 {
		t.Errorf("thread 0 committed %d, want its full 1500-instruction trace", res.PerThread[0])
	}
}
