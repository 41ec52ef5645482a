// Package perf measures the simulator's own performance — wall-clock
// time, allocation behaviour and simulation throughput of the hot paths —
// and serialises the result as a reproducible JSON baseline (the
// BENCH_*.json files at the repository root). The workloads are pinned:
// the same configurations, seeds and instruction budgets every run, so
// two baselines taken on the same machine differ only by the speed of the
// code, not by what was simulated.
package perf

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/iq"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/uop"
)

// Schema identifies the BENCH json layout; bump it when fields change
// meaning.
const Schema = 1

// Metrics reports one measured workload.
type Metrics struct {
	// Name identifies the pinned workload.
	Name string `json:"name"`
	// Iterations is the b.N testing.Benchmark settled on.
	Iterations int `json:"iterations"`
	// NsPerOp / BytesPerOp / AllocsPerOp are the standard Go benchmark
	// numbers for one operation (one simulated cycle for the cycle-loop
	// workloads, one full run for the machine workloads).
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`

	// The machine workloads also report what they simulated: instructions
	// and cycles per run, simulation speed in simulated million
	// instructions per wall-clock second, wall nanoseconds per simulated
	// cycle, and the simulated IPC (a correctness cross-check — it must
	// not move between baselines).
	SimInstructions int64   `json:"sim_instructions,omitempty"`
	SimCycles       int64   `json:"sim_cycles,omitempty"`
	SimMIPS         float64 `json:"sim_mips,omitempty"`
	NsPerSimCycle   float64 `json:"ns_per_sim_cycle,omitempty"`
	SimIPC          float64 `json:"sim_ipc,omitempty"`

	// SkippedCycles / SkipWindows report the event-driven idle-cycle
	// skipping activity of the machine workloads: how many of SimCycles
	// were elided rather than stepped, and in how many windows. Telemetry
	// only — skipping is bit-identical, so SimCycles and SimIPC are
	// unaffected. Absent (zero) in baselines predating the skipper.
	SkippedCycles int64 `json:"skipped_cycles,omitempty"`
	SkipWindows   int64 `json:"skip_windows,omitempty"`

	// The prefix-sharing sweep variants also report their sharing
	// outcomes: how many multi-member families carried a snapshot ladder,
	// how many siblings shared the reference's prefix versus fell back to
	// a cold fork, and how many of the total simulated cycles were not
	// re-simulated. Sharing is bit-identical, so SimInstructions and
	// SimCycles still match the cold and forked variants exactly.
	PrefixFamilies     int64 `json:"prefix_families,omitempty"`
	PrefixShared       int64 `json:"prefix_shared,omitempty"`
	PrefixFallbacks    int64 `json:"prefix_fallbacks,omitempty"`
	PrefixSharedCycles int64 `json:"prefix_shared_cycles,omitempty"`
	PrefixTotalCycles  int64 `json:"prefix_total_cycles,omitempty"`

	// The pre-screened sweep workload reports its screening outcome:
	// grid points scored analytically, the points actually simulated
	// (predicted frontier plus audit sample), the frontier's size, and
	// the estimator's audit accuracy. Like the prefix_* counters, these
	// live in the perf baseline and deliberately NOT in shard files —
	// shard output stays byte-identical whether a sweep was screened,
	// prefix-shared, or run cold.
	PrescreenScreened  int64   `json:"prescreen_screened,omitempty"`
	PrescreenSimulated int64   `json:"prescreen_simulated,omitempty"`
	PrescreenFrontier  int64   `json:"prescreen_frontier,omitempty"`
	PrescreenAuditRho  float64 `json:"prescreen_audit_rho,omitempty"`
	PrescreenAuditMAPE float64 `json:"prescreen_audit_mape,omitempty"`
}

// Baseline is a full performance capture.
type Baseline struct {
	Schema    int       `json:"schema"`
	GoVersion string    `json:"go_version"`
	GOOS      string    `json:"goos"`
	GOARCH    string    `json:"goarch"`
	Workloads []Metrics `json:"workloads"`
}

// fromResult converts a testing.Benchmark result.
func fromResult(name string, r testing.BenchmarkResult) Metrics {
	return Metrics{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

// QueueCycleLoop is the steady-state cycle loop the queue cycle
// benchmarks time: q is loaded with 400 independent ALU instructions, then
// each operation runs BeginCycle, Issue (accepting everything), Writeback
// and a refill Dispatch per issued instruction, and EndCycle. Every
// instruction lives in a preallocated ring eight times the largest queue
// measured (512 entries), so a slot comes back round only long after its
// previous occupant issued and wrote back, and the loop measures the queue
// rather than the allocator.
func QueueCycleLoop(b *testing.B, q iq.Queue) {
	b.ReportAllocs()
	ring := make([]uop.UOp, 4096)
	queued := make([]bool, len(ring))
	var seq int64
	dispatch := func(c int64, in isa.Inst) bool {
		i := seq % int64(len(ring))
		if queued[i] {
			b.Fatalf("ring slot of instruction %d reused while still queued", ring[i].Seq)
		}
		u := &ring[i]
		*u = *uop.New(seq, in)
		seq++
		queued[i] = q.Dispatch(c, u)
		return queued[i]
	}
	for i := 0; i < 400; i++ {
		in := isa.Inst{Class: isa.IntAlu, Src1: isa.RegNone, Src2: isa.RegNone, Dest: 1 + i%20}
		if !dispatch(0, in) {
			break
		}
	}
	accept := func(*uop.UOp) bool { return true }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := int64(i + 1)
		q.BeginCycle(c)
		for _, u := range q.Issue(c, 8, accept) {
			queued[u.Seq%int64(len(ring))] = false
			u.Complete = c + 1
			q.Writeback(c+1, u)
			dispatch(c, u.Inst)
		}
		q.EndCycle(c, true)
	}
}

// segmentedCycleLoop times QueueCycleLoop over a 512-entry segmented
// queue with 128 chain wires.
func segmentedCycleLoop(b *testing.B) {
	QueueCycleLoop(b, core.MustNew(core.DefaultConfig(512, 128)))
}

// conventionalCycleLoop times QueueCycleLoop over the 512-entry
// conventional (ideal) queue, which selects straight off its ready bitmap.
func conventionalCycleLoop(b *testing.B) {
	QueueCycleLoop(b, iq.NewConventional(512))
}

// machineRun reports one full-machine simulation: the sim.Result plus the
// engine's idle-skipping telemetry.
type machineRun struct {
	cycles, insts    int64
	ipc              float64
	skipped, windows int64
}

// machineWorkload builds the full-machine workload for one queue design:
// the Table 1 processor run for a pinned instruction budget.
func machineWorkload(cfg sim.Config, workload string, n, warm int64) (func(b *testing.B), *machineRun) {
	var out machineRun
	fn := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := trace.New(workload, 1)
			if err != nil {
				b.Fatal(err)
			}
			p, err := sim.New(cfg, s)
			if err != nil {
				b.Fatal(err)
			}
			p.Warm(s, warm)
			res, err := p.Run(n)
			if err != nil {
				b.Fatal(err)
			}
			out = machineRun{
				cycles: res.Cycles, insts: res.Instructions, ipc: res.IPC,
				skipped: p.SkippedCycles(), windows: p.SkipWindows(),
			}
		}
	}
	return fn, &out
}

// sweepGrid is the pinned grid of the sweep workloads: six points varying
// queue design and size under one memory/branch geometry, the shape of a
// real iqbench sweep. The three segmented points form one sweep family —
// unlimited chains (the reference), a 320-chain bound swim's demand never
// reaches (peak 275 on this sample, so the prefix sweep shares its whole
// run), and a 128-chain bound that binds within the first hundred cycles
// (an honest early-divergence fallback). BENCH_7 re-recorded every sweep
// entry under this grid; sweep numbers from earlier baselines are not
// comparable.
func sweepGrid(noSkip bool) []sim.Config {
	grid := []sim.Config{
		sim.DefaultConfig(sim.QueueIdeal, 512),
		sim.SegmentedConfig(512, 0, true, true),
		sim.SegmentedConfig(512, 320, true, true),
		sim.SegmentedConfig(512, 128, true, true),
		sim.PrescheduledConfig(320),
		sim.DistanceConfig(320),
	}
	for i := range grid {
		grid[i].NoSkip = noSkip
	}
	return grid
}

// The sweep pins the default iqbench warmup (300k instructions) so the
// cold/forked ratio reflects what a real sweep saves.
const (
	sweepWorkload = "swim"
	sweepN        = 10_000
	sweepWarm     = 300_000
)

// sweepCold sweeps the grid the pre-checkpoint way: every point warms the
// machine from scratch.
func sweepCold(noSkip bool) (insts, cycles int64, err error) {
	for _, cfg := range sweepGrid(noSkip) {
		r, err := sim.RunWorkloadWarm(cfg, sweepWorkload, 1, sweepN, sweepWarm)
		if err != nil {
			return 0, 0, err
		}
		insts += r.Instructions
		cycles += r.Cycles
	}
	return insts, cycles, nil
}

// sweepForked sweeps the same grid by warming once and forking the
// checkpoint per point. Its simulated totals must equal sweepCold's —
// forked runs are bit-identical — while its wall-clock drops by roughly
// the warmup fraction.
func sweepForked(noSkip bool) (insts, cycles int64, err error) {
	ck, err := sim.NewCheckpoint(sim.DefaultConfig(sim.QueueIdeal, 512),
		sim.ContextSpec{Workload: sweepWorkload, Seed: 1, Warm: sweepWarm})
	if err != nil {
		return 0, 0, err
	}
	for _, cfg := range sweepGrid(noSkip) {
		p, err := ck.Fork(cfg)
		if err != nil {
			return 0, 0, err
		}
		r, err := p.Run(sweepN)
		if err != nil {
			return 0, 0, err
		}
		p.Recycle()
		insts += r.Instructions
		cycles += r.Cycles
	}
	return insts, cycles, nil
}

// groupFamilies splits a sweep grid into prefix-sharing families by
// sim.FamilyKey, preserving grid order within and across families.
func groupFamilies(grid []sim.Config) [][]sim.Config {
	var fams [][]sim.Config
	idx := make(map[sim.Config]int)
	for _, cfg := range grid {
		k := sim.FamilyKey(cfg)
		if i, ok := idx[k]; ok {
			fams[i] = append(fams[i], cfg)
		} else {
			idx[k] = len(fams)
			fams = append(fams, []sim.Config{cfg})
		}
	}
	return fams
}

// sweepPrefix sweeps the grid the divergence-aware way: one warmup, then
// each family runs through sim.RunFamily, sharing the reference member's
// detailed prefix with siblings its demand curves prove identical.
// Simulated totals must equal sweepCold's and sweepForked's exactly.
func sweepPrefix(noSkip bool, ps *sim.PrefixStats) (insts, cycles int64, err error) {
	ck, err := sim.NewCheckpoint(sim.DefaultConfig(sim.QueueIdeal, 512),
		sim.ContextSpec{Workload: sweepWorkload, Seed: 1, Warm: sweepWarm})
	if err != nil {
		return 0, 0, err
	}
	for _, fam := range groupFamilies(sweepGrid(noSkip)) {
		rs, err := sim.RunFamily(ck, fam, sweepN, true, ps)
		if err != nil {
			return 0, 0, err
		}
		for _, r := range rs {
			insts += r.Instructions
			cycles += r.Cycles
		}
	}
	return insts, cycles, nil
}

// sweepStore sweeps the grid through a directory-backed checkpoint store:
// LoadOrNew either warms and saves (fresh dir) or loads the saved warmup
// (populated dir), then forks per point exactly like sweepForked.
func sweepStore(dir string, noSkip bool) (insts, cycles int64, hit bool, err error) {
	st := &sim.DirStore{Dir: dir}
	ck, hit, err := st.LoadOrNew(sim.DefaultConfig(sim.QueueIdeal, 512),
		sim.ContextSpec{Workload: sweepWorkload, Seed: 1, Warm: sweepWarm})
	if err != nil {
		return 0, 0, false, err
	}
	for _, cfg := range sweepGrid(noSkip) {
		p, err := ck.Fork(cfg)
		if err != nil {
			return 0, 0, hit, err
		}
		r, err := p.Run(sweepN)
		if err != nil {
			return 0, 0, hit, err
		}
		p.Recycle()
		insts += r.Instructions
		cycles += r.Cycles
	}
	return insts, cycles, hit, nil
}

// smtSweepSpecs is the pinned SMT context set of the smt_sweep pair: a
// streaming workload co-scheduled with a pointer-chasing one, the
// highest-contention pairing of the SMT grid.
func smtSweepSpecs() []sim.ContextSpec {
	return []sim.ContextSpec{
		{Workload: "swim", Seed: 1, Warm: sweepWarm},
		{Workload: "twolf", Seed: 2, Warm: sweepWarm},
	}
}

// smtSweepGrid pins one machine per queue design for the SMT sweep pair.
func smtSweepGrid(noSkip bool) []sim.Config {
	grid := []sim.Config{
		sim.DefaultConfig(sim.QueueIdeal, 256),
		sim.SegmentedConfig(256, 64, true, true),
		sim.PrescheduledConfig(320),
		sim.FIFOConfig(256),
		sim.DistanceConfig(320),
	}
	for i := range grid {
		grid[i].NoSkip = noSkip
	}
	return grid
}

// smtSweepCold sweeps the SMT grid the pre-checkpoint way: every point
// warms a cold two-context machine round-robin from scratch.
func smtSweepCold(noSkip bool) (insts, cycles int64, err error) {
	for _, cfg := range smtSweepGrid(noSkip) {
		r, err := sim.RunContexts(cfg, smtSweepSpecs(), sweepN)
		if err != nil {
			return 0, 0, err
		}
		insts += r.Instructions
		cycles += r.Cycles
	}
	return insts, cycles, nil
}

// smtSweepForked warms the two-context set once and forks the checkpoint
// per design. Its simulated totals must equal smtSweepCold's.
func smtSweepForked(noSkip bool) (insts, cycles int64, err error) {
	ck, err := sim.NewCheckpoint(sim.DefaultConfig(sim.QueueIdeal, 256), smtSweepSpecs()...)
	if err != nil {
		return 0, 0, err
	}
	for _, cfg := range smtSweepGrid(noSkip) {
		p, err := ck.Fork(cfg)
		if err != nil {
			return 0, 0, err
		}
		r, err := p.Run(sweepN)
		if err != nil {
			return 0, 0, err
		}
		p.Recycle()
		insts += r.Instructions
		cycles += r.Cycles
	}
	return insts, cycles, nil
}

// smtSweepPrefix runs the SMT grid through the family scheduler. Every
// SMT grid point is a different queue design — five singleton families —
// so nothing can share and the variant must cost the same as
// smtSweepForked: it pins down that the family machinery adds no
// overhead when no family exists.
func smtSweepPrefix(noSkip bool, ps *sim.PrefixStats) (insts, cycles int64, err error) {
	ck, err := sim.NewCheckpoint(sim.DefaultConfig(sim.QueueIdeal, 256), smtSweepSpecs()...)
	if err != nil {
		return 0, 0, err
	}
	for _, fam := range groupFamilies(smtSweepGrid(noSkip)) {
		rs, err := sim.RunFamily(ck, fam, sweepN, true, ps)
		if err != nil {
			return 0, 0, err
		}
		for _, r := range rs {
			insts += r.Instructions
			cycles += r.Cycles
		}
	}
	return insts, cycles, nil
}

// sweepCkptCold is the first process against a fresh store: pays the
// warmup, serialises it, and sweeps. Fresh directory every iteration.
func sweepCkptCold(noSkip bool) (int64, int64, error) {
	dir, err := os.MkdirTemp("", "iqperf-ckpt-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	insts, cycles, hit, err := sweepStore(dir, noSkip)
	if err == nil && hit {
		err = fmt.Errorf("perf: fresh checkpoint store reported a hit")
	}
	return insts, cycles, err
}

// measureSweep benchmarks one sweep variant.
func measureSweep(name string, sweep func() (int64, int64, error)) Metrics {
	var insts, cycles int64
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			insts, cycles, err = sweep()
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	m := fromResult(name, r)
	m.SimInstructions = insts
	m.SimCycles = cycles
	if secs := r.T.Seconds(); secs > 0 {
		m.SimMIPS = float64(insts) * float64(r.N) / secs / 1e6
	}
	if cycles > 0 {
		m.NsPerSimCycle = m.NsPerOp / float64(cycles)
	}
	return m
}

// measureSweepPrefix benchmarks a prefix-sharing sweep variant and
// attaches the last iteration's sharing outcomes to the metrics.
func measureSweepPrefix(name string, sweep func(*sim.PrefixStats) (int64, int64, error)) Metrics {
	var last *sim.PrefixStats
	m := measureSweep(name, func() (int64, int64, error) {
		ps := &sim.PrefixStats{}
		insts, cycles, err := sweep(ps)
		last = ps
		return insts, cycles, err
	})
	if last != nil {
		m.PrefixFamilies = last.Families.Load()
		m.PrefixShared = last.Shared.Load()
		m.PrefixFallbacks = last.Fallbacks.Load()
		m.PrefixSharedCycles = last.SharedCycles.Load()
		m.PrefixTotalCycles = last.TotalCycles.Load()
	}
	return m
}

// measurePrescreen benchmarks one pre-screened ci-grid sweep (analytic
// scoring of every point, simulation of the predicted frontier plus the
// audit sample) and attaches the last iteration's screening outcome.
func measurePrescreen(name string, noSkip bool) Metrics {
	o := experiments.Options{
		Instructions: 2000,
		Warmup:       10_000,
		Seed:         1,
		Benchmarks:   []string{"swim"},
		NoSkip:       noSkip,
	}
	po := experiments.PrescreenOptions{Grid: "ci", Audit: 8}
	var last *experiments.PrescreenResult
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, _, err := experiments.Prescreen(o, po)
			if err != nil {
				b.Fatal(err)
			}
			last = res
		}
	})
	m := fromResult(name, r)
	if last != nil {
		w := last.Workloads[0]
		m.SimInstructions = int64(w.Simulated) * o.Instructions
		m.PrescreenScreened = int64(w.Screened)
		m.PrescreenSimulated = int64(w.Simulated)
		m.PrescreenFrontier = int64(w.Frontier)
		m.PrescreenAuditRho = w.Spearman
		m.PrescreenAuditMAPE = w.MAPE
	}
	return m
}

// Measure runs every pinned workload and returns the baseline. It takes a
// few seconds per workload (testing.Benchmark's usual settling). noSkip
// steps every cycle instead of skipping provably idle spans, for
// before/after comparisons of the skipper itself; baselines are normally
// captured with skipping on (the simulator's default).
func Measure(noSkip bool) Baseline {
	b := Baseline{
		Schema:    Schema,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}

	b.Workloads = append(b.Workloads,
		fromResult("segmented_queue_cycle_512", testing.Benchmark(segmentedCycleLoop)),
		fromResult("conventional_queue_cycle_512", testing.Benchmark(conventionalCycleLoop)))

	type machine struct {
		name     string
		cfg      sim.Config
		workload string
		n, warm  int64
	}
	machines := []machine{
		{"table1_segmented_swim", sim.SegmentedConfig(512, 128, true, true), "swim", 10_000, 100_000},
		{"table1_ideal_swim", sim.DefaultConfig(sim.QueueIdeal, 512), "swim", 10_000, 100_000},
		{"table1_segmented_gcc", sim.SegmentedConfig(512, 128, true, true), "gcc", 10_000, 100_000},
	}
	for i := range machines {
		machines[i].cfg.NoSkip = noSkip
	}
	for _, m := range machines {
		fn, run := machineWorkload(m.cfg, m.workload, m.n, m.warm)
		r := testing.Benchmark(fn)
		mt := fromResult(m.name, r)
		mt.SimInstructions = run.insts
		mt.SimCycles = run.cycles
		mt.SimIPC = run.ipc
		mt.SkippedCycles = run.skipped
		mt.SkipWindows = run.windows
		if secs := r.T.Seconds(); secs > 0 {
			mt.SimMIPS = float64(run.insts) * float64(r.N) / secs / 1e6
		}
		if run.cycles > 0 {
			mt.NsPerSimCycle = mt.NsPerOp / float64(run.cycles)
		}
		b.Workloads = append(b.Workloads, mt)
	}

	// The sweep triple measures the sweep scheduler's wins: the same
	// pinned grid swept cold, forked from one warm checkpoint, and
	// forked with divergence-aware prefix sharing on top. The ns/op
	// ratios are the wall-clock savings; all three simulated totals must
	// be identical.
	b.Workloads = append(b.Workloads,
		measureSweep("sweep6_swim_cold", func() (int64, int64, error) { return sweepCold(noSkip) }),
		measureSweep("sweep6_swim_forked", func() (int64, int64, error) { return sweepForked(noSkip) }),
		measureSweepPrefix("sweep6_swim_prefix", func(ps *sim.PrefixStats) (int64, int64, error) {
			return sweepPrefix(noSkip, ps)
		}))

	// The pre-screened sweep measures the screening path end-to-end on a
	// pinned selection: score the ci grid analytically for one workload,
	// then simulate only the predicted frontier plus the audit sample.
	// The prescreen_* fields record the screening outcome next to the
	// wall-clock number, so a baseline shows both what screening costs
	// and how much of the grid it spared.
	b.Workloads = append(b.Workloads, measurePrescreen("prescreen_ci_swim", noSkip))

	// The SMT sweep triple measures the same for a multi-context set:
	// five queue designs forked from one two-context checkpoint versus
	// five cold round-robin warmups. All five designs differ, so the
	// prefix variant has nothing to share and must match the forked one —
	// the no-family overhead check. Simulated totals must be identical.
	b.Workloads = append(b.Workloads,
		measureSweep("smt_sweep5_swim_twolf_cold", func() (int64, int64, error) { return smtSweepCold(noSkip) }),
		measureSweep("smt_sweep5_swim_twolf_forked", func() (int64, int64, error) { return smtSweepForked(noSkip) }),
		measureSweepPrefix("smt_sweep5_swim_twolf_prefix", func(ps *sim.PrefixStats) (int64, int64, error) {
			return smtSweepPrefix(noSkip, ps)
		}))

	// The checkpoint-store pair measures the cross-process win: the same
	// grid swept against a fresh store (warm + serialise + sweep) and a
	// populated one (load + sweep — the repeat-sweep case -ckpt-dir
	// enables). The populated dir is seeded untimed; simulated totals must
	// match the cold sweep's exactly.
	warmDir, werr := os.MkdirTemp("", "iqperf-ckpt-")
	if werr == nil {
		defer os.RemoveAll(warmDir)
		_, _, _, werr = sweepStore(warmDir, noSkip)
	}
	b.Workloads = append(b.Workloads,
		measureSweep("sweep6_swim_ckpt_cold", func() (int64, int64, error) { return sweepCkptCold(noSkip) }),
		measureSweep("sweep6_swim_ckpt_warm", func() (int64, int64, error) {
			if werr != nil {
				return 0, 0, werr
			}
			insts, cycles, hit, err := sweepStore(warmDir, noSkip)
			if err == nil && !hit {
				err = fmt.Errorf("perf: populated checkpoint store missed")
			}
			return insts, cycles, err
		}))
	return b
}

// WriteJSON writes the baseline to path, indented, with a trailing
// newline.
func (b Baseline) WriteJSON(path string) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadJSON loads a baseline previously written by WriteJSON.
func ReadJSON(path string) (Baseline, error) {
	var b Baseline
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("perf: %s: %w", path, err)
	}
	return b, nil
}

// LatestBaseline returns the path of the highest-numbered BENCH_<n>.json
// in dir, so callers (the CI perf gate, `iqbench -perf-compare auto`)
// always compare against the newest checked-in baseline instead of a
// hardcoded file that goes stale when the next one lands.
func LatestBaseline(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	best, bestN := "", -1
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		var n int
		if _, err := fmt.Sscanf(e.Name(), "BENCH_%d.json", &n); err != nil {
			continue
		}
		// Sscanf tolerates trailing text; require the exact shape.
		if e.Name() != fmt.Sprintf("BENCH_%d.json", n) {
			continue
		}
		if n > bestN {
			bestN, best = n, filepath.Join(dir, e.Name())
		}
	}
	if best == "" {
		return "", fmt.Errorf("perf: no BENCH_<n>.json baseline found in %s", dir)
	}
	return best, nil
}
