package iqsim

// One benchmark per table and figure of the paper (DESIGN.md §4), plus
// the design-choice ablations and microbenchmarks of the simulator's own
// hot paths. The figure/table benchmarks run scaled-down samples per
// iteration and report IPC-style custom metrics; `go run ./cmd/iqbench`
// regenerates the full tables at publication scale.

import (
	"testing"

	"repro/internal/bpred"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/iq"
	"repro/internal/iq/iqtest"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/uop"
)

// benchOptions shrinks the experiment harness to benchmark scale.
func benchOptions() experiments.Options {
	o := experiments.DefaultOptions()
	o.Instructions = 5_000
	o.Warmup = 60_000
	return o
}

// BenchmarkFigure1Example reproduces the Figure 1 worked example: the
// nine-instruction sequence dispatched and drained through a
// three-segment queue.
func BenchmarkFigure1Example(b *testing.B) {
	none := isa.RegNone
	add := func(s1, s2, d int) isa.Inst { return isa.Inst{Class: isa.IntAlu, Src1: s1, Src2: s2, Dest: d} }
	mul := func(s1, s2, d int) isa.Inst { return isa.Inst{Class: isa.FpAdd, Src1: s1, Src2: s2, Dest: d} }
	prog := []isa.Inst{
		add(none, none, 1), mul(none, none, 2), add(2, none, 4),
		mul(4, none, 6), mul(6, none, 8), add(1, none, 3),
		add(3, none, 5), add(5, none, 7), add(6, 7, 9),
	}
	cfg := core.Config{Segments: 3, SegSize: 16, IssueWidth: 8,
		Pushdown: true, Bypass: true, DeadlockRecovery: true, PredictedLoadLatency: 4}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q := core.MustNew(cfg)
		last := map[int]*uop.UOp{}
		var uops []*uop.UOp
		for s, in := range prog {
			u := uop.New(int64(s), in)
			for j, src := range []int{in.Src1, in.Src2} {
				if src != isa.RegNone {
					if p, ok := last[src]; ok {
						u.Prod[j] = p
					}
				}
			}
			if in.HasDest() {
				last[in.Dest] = u
			}
			uops = append(uops, u)
			q.Dispatch(0, u)
		}
		issued := 0
		for cycle := int64(1); issued < len(uops) && cycle < 40; cycle++ {
			q.BeginCycle(cycle)
			for _, u := range q.Issue(cycle, 8, func(*uop.UOp) bool { return true }) {
				issued++
				u.Complete = cycle + int64(u.Latency())
				q.Writeback(u.Complete, u)
			}
			q.EndCycle(cycle, true)
		}
		if issued != len(uops) {
			b.Fatal("example did not drain")
		}
	}
}

// BenchmarkTable1Machine exercises the full Table 1 machine end to end
// (segmented queue, paper defaults) and reports simulated IPC and
// simulation throughput.
func BenchmarkTable1Machine(b *testing.B) {
	const n = 10_000
	var ipc float64
	for i := 0; i < b.N; i++ {
		res, err := Run(Segmented(512, 128, true, true), "swim", 1, n, 100_000)
		if err != nil {
			b.Fatal(err)
		}
		ipc = res.IPC
	}
	b.ReportMetric(ipc, "simIPC")
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "simInsts/s")
}

// runExperiment runs the named experiment's whole grid in one process
// and returns its results for a typed assembler.
func runExperiment(b *testing.B, o experiments.Options, name string) map[string]*sim.Result {
	b.Helper()
	sf, err := experiments.RunShard(o, name, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	return sf.SimResults()
}

// BenchmarkFigure2 regenerates Figure 2 (512-entry segmented IQ
// configurations relative to the ideal queue) at benchmark scale and
// reports the cross-benchmark average relative performance of the
// combined 128-chain configuration.
func BenchmarkFigure2(b *testing.B) {
	o := benchOptions()
	o.Benchmarks = []string{"swim", "equake", "mgrid"}
	var avg float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig2From(o, runExperiment(b, o, "fig2"))
		if err != nil {
			b.Fatal(err)
		}
		sum := 0.0
		for _, wl := range r.Benchmarks {
			sum += r.Relative[wl]["128 chains"]["comb"]
		}
		avg = sum / float64(len(r.Benchmarks))
	}
	b.ReportMetric(100*avg, "relPerf%")
}

// BenchmarkTable2 regenerates Table 2 (chain usage with unlimited chains)
// at benchmark scale and reports the base configuration's average chain
// count.
func BenchmarkTable2(b *testing.B) {
	o := benchOptions()
	o.Benchmarks = []string{"swim", "equake"}
	var avg float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table2From(o, runExperiment(b, o, "table2"))
		if err != nil {
			b.Fatal(err)
		}
		sum := 0.0
		for _, wl := range r.Benchmarks {
			sum += r.Average["base"][wl]
		}
		avg = sum / float64(len(r.Benchmarks))
	}
	b.ReportMetric(avg, "chainsAvg")
}

// BenchmarkFigure3 regenerates Figure 3 (IPC across queue sizes, all four
// series) at benchmark scale for one benchmark and reports the 512-entry
// combined-configuration IPC.
func BenchmarkFigure3(b *testing.B) {
	o := benchOptions()
	o.Benchmarks = []string{"equake"}
	var ipc float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig3From(o, runExperiment(b, o, "fig3"))
		if err != nil {
			b.Fatal(err)
		}
		series := r.IPC["comb-128chains"]["equake"]
		ipc = series[len(series)-1]
	}
	b.ReportMetric(ipc, "simIPC@512")
}

// BenchmarkInTextMeasurements regenerates the in-text measurements
// (§4.3, §4.4, §4.5, §6.1) and reports the HMP hit-prediction accuracy.
func BenchmarkInTextMeasurements(b *testing.B) {
	o := benchOptions()
	o.Benchmarks = []string{"mgrid"}
	var acc float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.InTextFrom(o, runExperiment(b, o, "intext"))
		if err != nil {
			b.Fatal(err)
		}
		acc = r["mgrid"].HMPAccuracy
	}
	b.ReportMetric(100*acc, "hmpAcc%")
}

// Ablation benchmarks (DESIGN.md §5): the full design against each
// enhancement disabled, on the memory-bound workload where the feature
// matters. Each reports simulated IPC so regressions in a feature's
// contribution are visible.

func benchAblation(b *testing.B, mod func(*sim.Config)) {
	cfg := Segmented(512, 128, true, true)
	mod(&cfg)
	var ipc float64
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg, "equake", 1, 8_000, 100_000)
		if err != nil {
			b.Fatal(err)
		}
		ipc = res.IPC
	}
	b.ReportMetric(ipc, "simIPC")
}

// BenchmarkAblationFull is the reference point for the ablations.
func BenchmarkAblationFull(b *testing.B) { benchAblation(b, func(*sim.Config) {}) }

// BenchmarkAblationNoPushdown disables §4.1 instruction pushdown.
func BenchmarkAblationNoPushdown(b *testing.B) {
	benchAblation(b, func(c *sim.Config) { c.Segmented.Pushdown = false })
}

// BenchmarkAblationNoBypass disables §4.2 segment bypassing.
func BenchmarkAblationNoBypass(b *testing.B) {
	benchAblation(b, func(c *sim.Config) { c.Segmented.Bypass = false })
}

// BenchmarkAblationInstantWires removes the chain-wire pipelining
// (signals reach every segment in the asserting cycle).
func BenchmarkAblationInstantWires(b *testing.B) {
	benchAblation(b, func(c *sim.Config) { c.Segmented.InstantWires = true })
}

// Microbenchmarks of the simulator's hot paths.

// BenchmarkSegmentedQueueCycle measures one BeginCycle+Issue round trip of
// a loaded 512-entry segmented queue, refilled as it issues.
func BenchmarkSegmentedQueueCycle(b *testing.B) {
	iqtest.QueueCycleLoop(b, core.MustNew(core.DefaultConfig(512, 128)))
}

// BenchmarkConventionalQueueCycle measures the same round trip over the
// conventional (ideal) queue, whose select runs straight off the ready
// bitmap.
func BenchmarkConventionalQueueCycle(b *testing.B) {
	iqtest.QueueCycleLoop(b, iq.NewConventional(512))
}

// BenchmarkCacheHierarchy measures demand accesses through the Table 1
// memory system.
func BenchmarkCacheHierarchy(b *testing.B) {
	h := mem.MustNewHierarchy(mem.DefaultHierarchyConfig())
	nop := func(int64, mem.Kind) {}
	b.ResetTimer()
	addr := uint64(0)
	for i := 0; i < b.N; i++ {
		c := int64(i)
		h.L1D.Access(c, addr, i%4 == 0, nop)
		addr += 24
		h.Tick(c)
	}
}

// BenchmarkBranchPredictor measures hybrid predictor lookups+updates.
func BenchmarkBranchPredictor(b *testing.B) {
	p := bpred.MustNewPredictor(bpred.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc := uint64(0x400000 + (i%64)*4)
		p.Predict(pc)
		p.Update(pc, i%3 != 0)
	}
}

// BenchmarkTraceGeneration measures workload generator throughput.
func BenchmarkTraceGeneration(b *testing.B) {
	s, err := trace.New("equake", 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Next(); !ok {
			b.Fatal("stream ended")
		}
	}
}
