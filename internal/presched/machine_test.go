package presched_test

import (
	"testing"

	"repro/internal/presched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// invariantArgs are FuzzPreschedInvariants' inputs: the scheduling-array
// geometry (rows, row width, issue-buffer size), the context count, one
// workload per context (an index into trace.Names, a byte each in mix,
// lowest first) and the trace seed of the first context.
type invariantArgs struct {
	lines, width, buffer uint8
	contexts             uint8
	mix                  uint32
	seed                 uint64
}

// mixOf packs workload names into an invariantArgs mix.
func mixOf(names ...string) uint32 {
	all := trace.Names()
	var mix uint32
	for i, n := range names {
		for j, a := range all {
			if a == n {
				mix |= uint32(j) << (8 * i)
			}
		}
	}
	return mix
}

// invariantSeeds are the machines TestPreschedInvariantsInMachine runs by
// name and FuzzPreschedInvariants starts from. swaps marks the machines
// whose array fills so that recycling takes the swap path.
var invariantSeeds = []struct {
	name  string
	a     invariantArgs
	swaps bool
}{
	{"320-swim", invariantArgs{lines: 24, width: 12, buffer: 32, contexts: 1, mix: mixOf("swim"), seed: 1}, true},
	{"1472-swim", invariantArgs{lines: 120, width: 12, buffer: 32, contexts: 1, mix: mixOf("swim"), seed: 1}, true},
	{"1472-gcc", invariantArgs{lines: 120, width: 12, buffer: 32, contexts: 1, mix: mixOf("gcc"), seed: 3}, false},
	{"smt2", invariantArgs{lines: 24, width: 12, buffer: 32, contexts: 2, mix: mixOf("mgrid", "gcc"), seed: 1}, false},
	{"tiny-smt4", invariantArgs{lines: 4, width: 3, buffer: 4, contexts: 4, mix: mixOf("swim", "twolf", "ammp", "equake"), seed: 7}, true},
	{"one-row", invariantArgs{lines: 1, width: 2, buffer: 1, contexts: 1, mix: mixOf("twolf"), seed: 5}, true},
}

// checkMachineInvariants runs the machine a describes — 20k warm
// instructions per context, then 6k committed — and checks the
// prescheduling queue's indexes and waiter chains after every cycle. It
// returns the number of cycles in which a camper was recycled while
// every row but the head was full, so took the swap path.
func checkMachineInvariants(t *testing.T, a invariantArgs) (swaps int) {
	lines := 1 + int(a.lines-1)%128
	width := 1 + int(a.width-1)%16
	buffer := 1 + int(a.buffer-1)%64
	contexts := 1 + int(a.contexts-1)%4
	pc := presched.Config{Lines: lines, LineWidth: width, IssueBuffer: buffer, PredictedLoadLatency: 4}
	cfg := sim.PrescheduledConfig(pc.IssueBuffer + pc.Lines*pc.LineWidth)
	cfg.Presched = pc
	names := trace.Names()
	workloads := make([]string, contexts)
	streams := make([]trace.Stream, contexts)
	for i := range streams {
		workloads[i] = names[int(a.mix>>(8*i)&0xff)%len(names)]
		s, err := trace.New(workloads[i], a.seed+uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		streams[i] = s
	}
	e, err := sim.NewEngine(cfg, streams)
	if err != nil {
		t.Fatal(err)
	}
	e.Warm(streams, 20_000)
	q := e.Queue().(*presched.PreschedIQ)
	const commits = 6_000
	for e.Committed() < commits {
		if e.Cycle() > 400*commits {
			t.Fatalf("%+v on %v: no forward progress after %d cycles", pc, workloads, e.Cycle())
		}
		full, before := q.RowsFull(), q.Recycled()
		e.Step()
		if full && q.Recycled() > before {
			swaps++
		}
		if err := q.CheckIndex(); err != nil {
			t.Fatalf("%+v on %v seed %d, cycle %d: %v", pc, workloads, a.seed, e.Cycle(), err)
		}
	}
	return swaps
}

// TestPreschedInvariantsInMachine runs the fuzz target's seed machines as
// named subtests, and checks that the seeds meant to reach the swap path
// do.
func TestPreschedInvariantsInMachine(t *testing.T) {
	for _, tc := range invariantSeeds {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			swaps := checkMachineInvariants(t, tc.a)
			if tc.swaps && swaps == 0 {
				t.Errorf("no camper took the swap path")
			}
		})
	}
}

// FuzzPreschedInvariants draws full machines — rows × row width × issue
// buffer × contexts × workloads × seed — and checks the prescheduling
// queue's indexes and waiter chains after every cycle. The seeds are
// added in code; no corpus is committed.
func FuzzPreschedInvariants(f *testing.F) {
	for _, tc := range invariantSeeds {
		a := tc.a
		f.Add(a.lines, a.width, a.buffer, a.contexts, a.mix, a.seed)
	}
	f.Fuzz(func(t *testing.T, lines, width, buffer, contexts uint8, mix uint32, seed uint64) {
		checkMachineInvariants(t, invariantArgs{lines, width, buffer, contexts, mix, seed})
	})
}
