package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/trace"
)

const testInsts = 8000

func run(t *testing.T, cfg Config, workload string, n int64) *Result {
	t.Helper()
	r, err := runWarm(cfg, workload, 7, n, 0)
	if err != nil {
		t.Fatalf("%s on %s: %v", cfg.Queue, workload, err)
	}
	return r
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig(QueueIdeal, 512).Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultConfig(QueueIdeal, 512)
	bad.Queue = "nonsense"
	if err := bad.Validate(); err == nil {
		t.Error("unknown queue kind accepted")
	}
	bad2 := DefaultConfig(QueueIdeal, 0)
	if err := bad2.Validate(); err == nil {
		t.Error("zero queue size accepted")
	}
	bad3 := DefaultConfig(QueueIdeal, 32)
	bad3.ROBSize = 0
	if err := bad3.Validate(); err == nil {
		t.Error("zero ROB accepted")
	}
	if _, err := newEngine(bad, trace.FromSlice("x", nil)); err == nil {
		t.Error("New must validate")
	}
	if _, err := runWarm(DefaultConfig(QueueIdeal, 32), "nope", 1, 10, 0); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestTable1Defaults(t *testing.T) {
	cfg := DefaultConfig(QueueIdeal, 512)
	if cfg.FetchToDecode != 10 || cfg.DecodeToDispatch != 5 {
		t.Error("front-end depth wrong")
	}
	if cfg.FetchWidth != 8 || cfg.IssueWidth != 8 || cfg.CommitWidth != 8 || cfg.DispatchWidth != 8 {
		t.Error("widths wrong")
	}
	if cfg.MaxBranches != 3 {
		t.Error("branch limit wrong")
	}
	if cfg.ROBSize != 3*512 {
		t.Error("ROB must be 3x the IQ")
	}
	if cfg.BTBEntries != 4096 || cfg.BTBWays != 4 {
		t.Error("BTB geometry wrong")
	}
	m := cfg.Memory
	if m.L1D.Size != 64<<10 || m.L1D.Ways != 2 || m.L1D.HitLatency != 3 || m.L1D.MSHRs != 32 {
		t.Error("L1D config wrong")
	}
	if m.L2.Size != 1<<20 || m.L2.Ways != 4 || m.L2.HitLatency != 10 {
		t.Error("L2 config wrong")
	}
	if m.MemLatency != 100 || m.MemBytesPerCycle != 8 {
		t.Error("memory config wrong")
	}
}

func TestAllQueuesAllWorkloadsComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	configs := map[string]Config{
		"ideal-64":     DefaultConfig(QueueIdeal, 64),
		"seg-64":       SegmentedConfig(64, 64, true, true),
		"presched-128": PrescheduledConfig(128),
		"fifos-64":     FIFOConfig(64),
		"distance-128": DistanceConfig(128),
	}
	for name, cfg := range configs {
		for _, w := range trace.Names() {
			r := run(t, cfg, w, 4000)
			// The final cycle may retire up to the commit width beyond
			// the requested budget.
			if r.Instructions < 4000 || r.Instructions >= 4000+int64(cfg.CommitWidth) {
				t.Errorf("%s/%s committed %d", name, w, r.Instructions)
			}
			if r.IPC <= 0.05 || r.IPC > 8 {
				t.Errorf("%s/%s IPC %.3f implausible", name, w, r.IPC)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	cfg := SegmentedConfig(128, 64, true, true)
	a := run(t, cfg, "equake", testInsts)
	b := run(t, cfg, "equake", testInsts)
	if a.Cycles != b.Cycles || a.IPC != b.IPC {
		t.Fatalf("nondeterministic: %d vs %d cycles", a.Cycles, b.Cycles)
	}
}

func TestIdealDominatesAtEqualSize(t *testing.T) {
	// The single-cycle ideal queue is an upper bound for the segmented
	// design at the same capacity (it pays no extra dispatch stage, no
	// promotion latency and has full-queue wakeup).
	for _, w := range []string{"swim", "gcc", "mgrid"} {
		ideal := run(t, DefaultConfig(QueueIdeal, 256), w, testInsts)
		seg := run(t, SegmentedConfig(256, 0, false, false), w, testInsts)
		if seg.IPC > ideal.IPC*1.05 {
			t.Errorf("%s: segmented %.3f implausibly beats ideal %.3f", w, seg.IPC, ideal.IPC)
		}
	}
}

func TestLargerWindowHelpsMemoryBoundCode(t *testing.T) {
	// The paper's headline: swim-like FP code gains enormously from a
	// larger window under an ideal queue.
	small := run(t, DefaultConfig(QueueIdeal, 32), "swim", testInsts)
	large := run(t, DefaultConfig(QueueIdeal, 512), "swim", testInsts)
	if large.IPC < small.IPC*1.5 {
		t.Errorf("swim: 512-entry %.3f vs 32-entry %.3f — expected a large win",
			large.IPC, small.IPC)
	}
	// gcc-like code gains little (misprediction bound).
	gs := run(t, DefaultConfig(QueueIdeal, 32), "gcc", testInsts)
	gl := run(t, DefaultConfig(QueueIdeal, 512), "gcc", testInsts)
	if gl.IPC > gs.IPC*1.6 {
		t.Errorf("gcc: 512-entry %.3f vs 32-entry %.3f — window should not help much",
			gl.IPC, gs.IPC)
	}
}

func TestSegmentedTracksIdealOnMgrid(t *testing.T) {
	// Mgrid achieves the paper's best relative performance (99.4% of
	// ideal at 512 entries with unlimited chains); require a healthy
	// fraction here.
	ideal := run(t, DefaultConfig(QueueIdeal, 256), "mgrid", testInsts)
	seg := run(t, SegmentedConfig(256, 0, false, false), "mgrid", testInsts)
	if rel := seg.IPC / ideal.IPC; rel < 0.5 {
		t.Errorf("segmented mgrid at %.1f%% of ideal, want a high fraction", rel*100)
	}
}

func TestSegmentedStatsPlumbing(t *testing.T) {
	r := run(t, SegmentedConfig(128, 64, true, true), "equake", testInsts)
	if v := r.Stats.MustGet("chains_peak"); v <= 0 {
		t.Error("chain accounting missing")
	}
	if v := r.Stats.MustGet("iq_promotions"); v <= 0 {
		t.Error("no promotions recorded")
	}
	if _, ok := r.Stats.Get("hmp_hit_pred_accuracy"); !ok {
		t.Error("HMP stats missing")
	}
	if _, ok := r.Stats.Get("lrp_accuracy"); !ok {
		t.Error("LRP stats missing")
	}
	if v := r.Stats.MustGet("l1d_accesses"); v <= 0 {
		t.Error("memory stats missing")
	}
	if v := r.Stats.MustGet("branches"); v <= 0 {
		t.Error("branch stats missing")
	}
}

func TestChainScarcityHurts(t *testing.T) {
	// equake has the highest chain demand (Table 2); starving it of
	// chains must not *help*.
	rich := run(t, SegmentedConfig(256, 0, false, false), "equake", testInsts)
	poor := run(t, SegmentedConfig(256, 16, false, false), "equake", testInsts)
	if poor.IPC > rich.IPC*1.05 {
		t.Errorf("16 chains (%.3f) implausibly beats unlimited (%.3f)", poor.IPC, rich.IPC)
	}
	if poor.Stats.MustGet("iq_stall_nochain") == 0 {
		t.Error("chain starvation produced no dispatch stalls")
	}
}

func TestFiniteTraceDrains(t *testing.T) {
	ins := []isa.Inst{
		{PC: 4, Class: isa.IntAlu, Src1: isa.RegNone, Src2: isa.RegNone, Dest: 1},
		{PC: 8, Class: isa.IntAlu, Src1: 1, Src2: isa.RegNone, Dest: 2},
		{PC: 12, Class: isa.Load, Src1: 2, Src2: isa.RegNone, Dest: 3, Size: 8, Addr: 0x100},
		{PC: 16, Class: isa.Store, Src1: 3, Src2: 2, Size: 8, Addr: 0x108},
	}
	p := mustEngine(SegmentedConfig(64, 8, false, false), trace.FromSlice("tiny", ins))
	r, err := p.Run(1000)
	if err != nil {
		t.Fatal(err)
	}
	if r.Instructions != 4 {
		t.Fatalf("committed %d, want 4", r.Instructions)
	}
}

func TestBuildQueueVariants(t *testing.T) {
	// Explicit sub-configs are honoured.
	cfg := SegmentedConfig(512, 128, false, false)
	cfg.Segmented.InstantWires = true
	q, err := cfg.buildQueue()
	if err != nil {
		t.Fatal(err)
	}
	if sq, ok := q.(*core.SegmentedIQ); !ok || !sq.Config().InstantWires {
		t.Error("segmented sub-config not honoured")
	}
	pc := PrescheduledConfig(320)
	q2, err := pc.buildQueue()
	if err != nil {
		t.Fatal(err)
	}
	if q2.Capacity() != 320 {
		t.Errorf("presched capacity %d", q2.Capacity())
	}
}
