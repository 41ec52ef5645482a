package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/uop"
)

// buildTrace makes an n-instruction independent-ALU trace with the given
// instruction interposed at position k.
func aluTrace(n int, interpose map[int]isa.Inst) []isa.Inst {
	var out []isa.Inst
	for i := 0; i < n; i++ {
		if in, ok := interpose[i]; ok {
			out = append(out, in)
			continue
		}
		out = append(out, isa.Inst{PC: 0x1000 + uint64(4*i), Class: isa.IntAlu,
			Src1: isa.RegNone, Src2: isa.RegNone, Dest: 1 + i%8})
	}
	return out
}

func runTrace(t *testing.T, cfg Config, ins []isa.Inst) (*Engine, *Result) {
	t.Helper()
	p := mustEngine(cfg, trace.FromSlice("t", ins))
	// Pre-warm the instruction lines so cold I-cache misses to memory do
	// not dominate these short timing-focused traces. (Branch training is
	// also applied, which the misprediction test compensates for by using
	// a branch whose BTB entry cannot be correct... it trains the target,
	// so use data addresses only.)
	for _, in := range ins {
		p.hier.WarmInst(in.PC)
	}
	r, err := p.Run(int64(len(ins)))
	if err != nil {
		t.Fatal(err)
	}
	return p, r
}

// TestMispredictPenalty: a single mispredicted branch (cold BTB, taken)
// costs roughly the branch's resolution latency plus the front-end refill.
func TestMispredictPenalty(t *testing.T) {
	straight := aluTrace(64, nil)
	br := isa.Inst{PC: 0x2000, Class: isa.Branch, Src1: 1, Src2: isa.RegNone,
		Taken: true, Target: 0x3000}
	withBranch := aluTrace(64, map[int]isa.Inst{32: br})

	cfg := DefaultConfig(QueueIdeal, 64)
	_, base := runTrace(t, cfg, straight)
	_, mis := runTrace(t, cfg, withBranch)

	penalty := mis.Cycles - base.Cycles
	if mis.Stats.MustGet("branch_mispredicts") != 1 {
		t.Fatalf("mispredicts = %v", mis.Stats.MustGet("branch_mispredicts"))
	}
	// Resolution (branch must traverse the front end and issue) plus
	// refill: at least the 15-cycle front-end depth, bounded by ~3x.
	if penalty < 15 || penalty > 60 {
		t.Fatalf("misprediction penalty = %d cycles, want ~15-60", penalty)
	}
}

// TestStructuralHazardDivider: unpipelined dividers occupy their units;
// nine back-to-back divides cannot overlap on eight units.
func TestStructuralHazardDivider(t *testing.T) {
	var ins []isa.Inst
	for i := 0; i < 9; i++ {
		ins = append(ins, isa.Inst{PC: 0x1000 + uint64(4*i), Class: isa.FpDiv,
			Src1: isa.RegNone, Src2: isa.RegNone, Dest: isa.FpReg(i % 16)})
	}
	cfg := DefaultConfig(QueueIdeal, 64)
	_, r := runTrace(t, cfg, ins)
	// Eight divides start as soon as dispatched; the ninth waits a full
	// 12-cycle occupancy.
	if r.Stats.MustGet("fu_structural_stalls") == 0 {
		t.Fatal("no structural stalls recorded")
	}
}

// TestStoreLoadForwardingEndToEnd: a load overlapping an older store
// completes by forwarding, far faster than a cache round trip would
// be... the line is cold, so a non-forwarded load would take >100 cycles.
func TestStoreLoadForwardingEndToEnd(t *testing.T) {
	ins := []isa.Inst{
		{PC: 0x1000, Class: isa.IntAlu, Src1: isa.RegNone, Src2: isa.RegNone, Dest: 1},
		{PC: 0x1004, Class: isa.Store, Src1: 1, Src2: isa.RegNone, Size: 8, Addr: 0x5_0000},
		{PC: 0x1008, Class: isa.Load, Src1: isa.RegNone, Src2: isa.RegNone, Dest: 2, Size: 8, Addr: 0x5_0000},
		{PC: 0x100c, Class: isa.IntAlu, Src1: 2, Src2: isa.RegNone, Dest: 3},
	}
	cfg := DefaultConfig(QueueIdeal, 64)
	_, r := runTrace(t, cfg, ins)
	if r.Stats.MustGet("lsq_forwards") != 1 {
		t.Fatalf("forwards = %v", r.Stats.MustGet("lsq_forwards"))
	}
	// Total runtime stays far below a memory round trip.
	if r.Cycles > 60 {
		t.Fatalf("run took %d cycles; forwarding should avoid the memory latency", r.Cycles)
	}
}

// TestROBFullStall: a tiny ROB behind a long-latency load must stall
// dispatch and record it.
func TestROBFullStall(t *testing.T) {
	ld := isa.Inst{PC: 0x1000, Class: isa.Load, Src1: isa.RegNone, Src2: isa.RegNone,
		Dest: 1, Size: 8, Addr: 0x9_0000}
	ins := append([]isa.Inst{ld}, aluTrace(64, nil)...)
	cfg := DefaultConfig(QueueIdeal, 64)
	cfg.ROBSize = 8
	_, r := runTrace(t, cfg, ins)
	if r.Stats.MustGet("dispatch_stall_rob") == 0 {
		t.Fatal("ROB stalls not recorded")
	}
}

// TestLSQFullStall: memory instructions beyond the LSQ capacity stall
// dispatch.
func TestLSQFullStall(t *testing.T) {
	var ins []isa.Inst
	for i := 0; i < 24; i++ {
		ins = append(ins, isa.Inst{PC: 0x1000 + uint64(4*i), Class: isa.Load,
			Src1: isa.RegNone, Src2: isa.RegNone, Dest: 1 + i%8, Size: 8,
			Addr: 0x10_0000 + uint64(64*i)})
	}
	cfg := DefaultConfig(QueueIdeal, 64)
	cfg.LSQSize = 4
	_, r := runTrace(t, cfg, ins)
	if r.Stats.MustGet("dispatch_stall_lsq") == 0 {
		t.Fatal("LSQ stalls not recorded")
	}
}

// TestFIFOQueueEndToEnd: the Palacharla FIFO design runs every workload.
func TestFIFOQueueEndToEnd(t *testing.T) {
	cfg := FIFOConfig(128)
	for _, w := range []string{"gcc", "swim"} {
		r, err := runWarm(cfg, w, 1, 3000, 30_000)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if r.IPC <= 0.05 {
			t.Errorf("%s IPC %.3f implausible", w, r.IPC)
		}
		if _, ok := r.Stats.Get("fifo_steered"); !ok {
			t.Error("fifo stats missing")
		}
	}
}

// TestSegmentGatingEndToEnd: gating the segmented queue to one segment
// must behave like a 32-entry queue (lower IPC on a window-hungry
// workload) while remaining correct.
func TestSegmentGatingEndToEnd(t *testing.T) {
	cfg := SegmentedConfig(256, 0, false, false)
	s, _ := trace.New("swim", 1)
	p := mustEngine(cfg, s)
	p.Warm([]trace.Stream{s}, 100_000)
	p.Queue().(*core.SegmentedIQ).SetActiveSegments(1)
	full, err := p.Run(8000)
	if err != nil {
		t.Fatal(err)
	}
	open, err := runWarm(cfg, "swim", 1, 8000, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if full.IPC >= open.IPC {
		t.Fatalf("gated-to-1-segment IPC %.3f should trail ungated %.3f", full.IPC, open.IPC)
	}
	if got := full.Stats.MustGet("segments_active_avg"); got != 1 {
		t.Fatalf("active segments stat = %v", got)
	}
}

// TestWarmImprovesCacheResidentWorkload: the functional fast-forward must
// raise measured IPC on a reuse-heavy workload.
func TestWarmImprovesCacheResidentWorkload(t *testing.T) {
	cfg := DefaultConfig(QueueIdeal, 128)
	cold, err := runWarm(cfg, "twolf", 1, 5000, 0)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := runWarm(cfg, "twolf", 1, 5000, 300_000)
	if err != nil {
		t.Fatal(err)
	}
	if warm.IPC <= cold.IPC {
		t.Fatalf("warm IPC %.3f should beat cold %.3f", warm.IPC, cold.IPC)
	}
}

// TestBackToBackThroughFullMachine: a chain of dependent single-cycle
// ALU ops sustains one per cycle through the whole pipeline.
func TestBackToBackThroughFullMachine(t *testing.T) {
	var ins []isa.Inst
	const n = 64
	for i := 0; i < n; i++ {
		ins = append(ins, isa.Inst{PC: 0x1000 + uint64(4*i), Class: isa.IntAlu,
			Src1: 1, Src2: isa.RegNone, Dest: 1})
	}
	cfg := DefaultConfig(QueueIdeal, 64)
	p, r := runTrace(t, cfg, ins)
	_ = p
	// Steady state: one instruction per cycle plus pipeline fill.
	fill := int64(20)
	if r.Cycles > int64(n)+fill+10 {
		t.Fatalf("serial chain took %d cycles for %d instructions; back-to-back broken", r.Cycles, n)
	}
	if r.Cycles < int64(n) {
		t.Fatalf("impossible: %d cycles for a %d-long serial chain", r.Cycles, n)
	}
}

// TestDelayedHitsObserved: swim's same-line loads must produce delayed
// hits in the L1D, the paper's §6.1 swim observation.
func TestDelayedHitsObserved(t *testing.T) {
	r, err := runWarm(DefaultConfig(QueueIdeal, 512), "swim", 1, 10_000, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.MustGet("l1d_delayed_hits") == 0 {
		t.Fatal("swim produced no delayed hits")
	}
}

// TestStoreRetiresOnlyWithData: a store whose data producer is a
// long-latency load cannot commit before the data exists.
func TestStoreRetiresOnlyWithData(t *testing.T) {
	ins := []isa.Inst{
		// Load from cold memory into r1 (data), address register free.
		{PC: 0x1000, Class: isa.Load, Src1: isa.RegNone, Src2: isa.RegNone, Dest: 1, Size: 8, Addr: 0x20_0000},
		// Store r1.
		{PC: 0x1004, Class: isa.Store, Src1: 1, Src2: isa.RegNone, Size: 8, Addr: 0x30_0000},
	}
	cfg := DefaultConfig(QueueIdeal, 64)
	_, r := runTrace(t, cfg, ins)
	// The run cannot finish before the load's ~122-cycle memory round
	// trip plus commit.
	if r.Cycles < 100 {
		t.Fatalf("store committed in %d cycles, before its data could exist", r.Cycles)
	}
}

// TestUopOvershootBound: Run never commits more than a commit-width
// beyond the budget.
func TestUopOvershootBound(t *testing.T) {
	cfg := DefaultConfig(QueueIdeal, 64)
	r, err := runWarm(cfg, "gcc", 1, 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Instructions < 1000 || r.Instructions >= 1000+int64(cfg.CommitWidth) {
		t.Fatalf("committed %d", r.Instructions)
	}
	_ = uop.NotYet
}

// TestDistanceQueueEndToEnd: the Canal & González distance scheme runs
// every workload without wedging.
func TestDistanceQueueEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := DistanceConfig(320)
	for _, w := range trace.Names() {
		r, err := runWarm(cfg, w, 1, 3000, 30_000)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if r.IPC <= 0.02 {
			t.Errorf("%s IPC %.3f implausible", w, r.IPC)
		}
		if _, ok := r.Stats.Get("dist_waited"); !ok {
			t.Error("distance stats missing")
		}
	}
}

// TestDiagnostics covers the cycle accessor a hand-stepped machine
// reports.
func TestDiagnostics(t *testing.T) {
	ins := aluTrace(4, nil)
	p := mustEngine(DefaultConfig(QueueIdeal, 32), trace.FromSlice("t", ins))
	p.Step()
	if p.Cycle() != 1 {
		t.Error("cycle accessor")
	}
}
