package core_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// invariantArgs are FuzzSegmentedInvariants' inputs: the design size in
// 32-entry segments, the chain-wire budget (0: unlimited), the predictor,
// bypass and wire-model switches, the context count, one workload per
// context (an index into trace.Names, a byte each in mix, lowest first)
// and the trace seed of the first context.
type invariantArgs struct {
	segs, chains      uint8
	hmp, lrp          bool
	noBypass, instant bool
	contexts          uint8
	mix               uint32
	seed              uint64
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

// invariantSeeds are the machines TestIndexInvariantsInMachine runs by
// name and FuzzSegmentedInvariants starts from.
var invariantSeeds = []struct {
	name string
	a    invariantArgs
}{
	{"512-unlimited", invariantArgs{segs: 16, hmp: true, lrp: true, contexts: 1, mix: mixOf("swim"), seed: 68}},
	{"512-64", invariantArgs{segs: 16, chains: 64, contexts: 1, mix: mixOf("gcc"), seed: 68}},
	{"no-bypass", invariantArgs{segs: 8, chains: 32, hmp: true, lrp: true, noBypass: true, contexts: 1, mix: mixOf("ammp"), seed: 76}},
	{"instant-wires", invariantArgs{segs: 8, chains: 64, hmp: true, instant: true, contexts: 1, mix: mixOf("ammp"), seed: 52}},
	{"smt2", invariantArgs{segs: 16, chains: 128, hmp: true, lrp: true, contexts: 2, mix: mixOf("vortex", "ammp"), seed: 84}},
}

// checkMachineInvariants runs the machine a describes — 20k warm
// instructions per context, then 6k committed — and checks the segmented
// queue's indexes after every cycle (and every skipped window).
func checkMachineInvariants(t *testing.T, a invariantArgs) {
	segs := int(a.segs)
	if segs < 1 || segs > 16 {
		segs = 1 + segs%16
	}
	contexts := int(a.contexts)
	if contexts < 1 || contexts > 4 {
		contexts = 1 + contexts%4
	}
	cfg := sim.SegmentedConfig(32*segs, int(a.chains), a.hmp, a.lrp)
	cfg.Segmented.Bypass = !a.noBypass
	cfg.Segmented.InstantWires = a.instant
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
	q := e.Queue().(*core.SegmentedIQ)
	const commits = 6_000
	for e.Committed() < commits {
		if e.Cycle() > 400*commits {
			t.Fatalf("%+v on %v: no forward progress after %d cycles", cfg.Segmented, workloads, e.Cycle())
		}
		e.Step()
		if err := q.CheckIndex(); err != nil {
			t.Fatalf("%+v on %v seed %d, cycle %d: %v", cfg.Segmented, workloads, a.seed, e.Cycle(), err)
		}
	}
}

// TestIndexInvariantsInMachine runs the fuzz target's seed machines as
// named subtests.
func TestIndexInvariantsInMachine(t *testing.T) {
	for _, tc := range invariantSeeds {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			checkMachineInvariants(t, tc.a)
		})
	}
}

// FuzzSegmentedInvariants draws full machines — design size × chain
// budget × predictors × bypass and wire model × contexts × workloads ×
// seed — and checks the segmented queue's indexes after every cycle. The
// seeds are added in code; no corpus is committed.
func FuzzSegmentedInvariants(f *testing.F) {
	for _, tc := range invariantSeeds {
		a := tc.a
		f.Add(a.segs, a.chains, a.hmp, a.lrp, a.noBypass, a.instant, a.contexts, a.mix, a.seed)
	}
	f.Fuzz(func(t *testing.T, segs, chains uint8, hmp, lrp, noBypass, instant bool, contexts uint8, mix uint32, seed uint64) {
		checkMachineInvariants(t, invariantArgs{segs, chains, hmp, lrp, noBypass, instant, contexts, mix, seed})
	})
}

// A machine cloned while threshold crossings are pending in the queue's
// heap continues exactly as the original: both run 500 more cycles, with
// the indexes checked after each, and report equal results.
func TestCloneWithPendingCrossings(t *testing.T) {
	cfg := sim.SegmentedConfig(512, 128, true, true)
	ck, err := sim.NewCheckpoint(cfg, sim.ContextSpec{Workload: "swim", Seed: 1, Warm: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	p, err := ck.Fork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	q := p.Queue().(*core.SegmentedIQ)
	var twin *sim.Engine
	for twin == nil {
		if p.Cycle() > 20_000 {
			t.Fatal("no cloneable cycle with a crossing pending")
		}
		p.Step()
		if q.LiveCrossings() > 0 {
			// An active clone needs a cycle with nothing in execution;
			// at any other the error just means step on.
			twin, _ = p.CloneActive()
		}
	}
	if n := twin.Queue().(*core.SegmentedIQ).LiveCrossings(); n != q.LiveCrossings() {
		t.Fatalf("clone holds %d pending crossings, original %d", n, q.LiveCrossings())
	}
	var results []*sim.Result
	for _, e := range []*sim.Engine{p.Engine, twin} {
		q := e.Queue().(*core.SegmentedIQ)
		for i := 0; i < 500; i++ {
			e.Step()
			if err := q.CheckIndex(); err != nil {
				t.Fatalf("cycle %d: %v", e.Cycle(), err)
			}
		}
		// The budget is already met, so Run only reports.
		r, err := (&sim.Processor{Engine: e}).Run(e.Committed())
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, r)
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Fatalf("clone diverged\noriginal: %v\nclone:    %v", results[0].Stats, results[1].Stats)
	}
}
