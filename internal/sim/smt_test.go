package sim

import (
	"testing"

	"repro/internal/trace"
)

func TestSMTValidation(t *testing.T) {
	if _, err := NewEngine(SegmentedConfig(128, 64, false, false), nil); err == nil {
		t.Fatal("zero streams accepted")
	}
	bad := SegmentedConfig(128, 64, false, false)
	bad.Queue = "nonsense"
	s, _ := trace.New("gcc", 1)
	if _, err := NewEngine(bad, []trace.Stream{s}); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := runSMT(SegmentedConfig(64, 0, false, false), []string{"nope"}, 1, 10, 0); err == nil {
		t.Fatal("unknown workload accepted")
	}
	p := mustEngine(SegmentedConfig(128, 64, false, false), s)
	if _, err := p.Run(0); err == nil {
		t.Fatal("zero budget accepted")
	}
}

func TestSMTSingleThreadMatchesShape(t *testing.T) {
	// A one-context SMT machine is just a processor with a halved... no:
	// full resources; its IPC should be in the same ballpark as the
	// single-threaded machine on the same workload.
	cfg := SegmentedConfig(128, 64, true, true)
	st, err := runWarm(cfg, "vortex", 1, 6000, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	smt, err := runSMT(cfg, []string{"vortex"}, 1, 6000, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	ratio := smt.IPC / st.IPC
	if ratio < 0.7 || ratio > 1.3 {
		t.Fatalf("1-thread SMT IPC %.3f vs single-thread %.3f", smt.IPC, st.IPC)
	}
}

func TestSMTThroughputExceedsSingleThread(t *testing.T) {
	// §7: chains from independent threads share the queue; co-scheduling
	// a latency-bound workload with a compute workload must beat either
	// thread alone.
	cfg := SegmentedConfig(256, 128, true, true)
	const n, warm = 10_000, 100_000
	a, err := runWarm(cfg, "twolf", 1, n, warm)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runWarm(cfg, "gcc", 2, n, warm)
	if err != nil {
		t.Fatal(err)
	}
	smt, err := runSMT(cfg, []string{"twolf", "gcc"}, 1, 2*n, warm)
	if err != nil {
		t.Fatal(err)
	}
	best := a.IPC
	if b.IPC > best {
		best = b.IPC
	}
	if smt.IPC <= best {
		t.Fatalf("SMT throughput %.3f should exceed the best single thread %.3f (a=%.3f b=%.3f)",
			smt.IPC, best, a.IPC, b.IPC)
	}
	// Both threads make progress.
	for i, c := range smt.PerThread {
		if c < int64(n)/4 {
			t.Fatalf("thread %d starved: %d committed (%v)", i, c, smt.PerThread)
		}
	}
}

func TestSMTPerThreadStats(t *testing.T) {
	cfg := SegmentedConfig(128, 64, false, false)
	r, err := runSMT(cfg, []string{"gcc", "vortex"}, 1, 6000, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Stats.Get("thread0_committed"); !ok {
		t.Error("per-thread stats missing")
	}
	if _, ok := r.Stats.Get("thread1_committed"); !ok {
		t.Error("per-thread stats missing")
	}
	if len(r.Workloads) != 2 || r.Workloads[0] != "gcc" {
		t.Errorf("workloads = %v", r.Workloads)
	}
	if v := r.Stats.MustGet("chains_peak"); v < 0 {
		t.Error("shared queue stats missing")
	}
}

func TestSMTRegisterNamespacesIsolated(t *testing.T) {
	// Two copies of the same workload share every architectural register
	// number; with per-thread register tables they must not corrupt each
	// other. A collision would show up as wrong chain assignments and, on
	// this chain-heavy workload, wedges or wild IPC swings.
	cfg := SegmentedConfig(256, 0, false, false)
	r, err := runSMT(cfg, []string{"equake", "equake"}, 1, 12_000, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if r.IPC <= 0.05 {
		t.Fatalf("IPC %.3f implausible", r.IPC)
	}
	// Neither context starves.
	if r.PerThread[0] < 2000 || r.PerThread[1] < 2000 {
		t.Fatalf("per-thread progress skewed: %v", r.PerThread)
	}
}

func TestSMTWithOtherQueues(t *testing.T) {
	for _, cfg := range []Config{
		DefaultConfig(QueueIdeal, 128),
		PrescheduledConfig(128),
		FIFOConfig(128),
	} {
		r, err := runSMT(cfg, []string{"gcc", "vortex"}, 1, 4000, 40_000)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Queue, err)
		}
		if r.IPC <= 0.05 {
			t.Errorf("%s SMT IPC %.3f implausible", cfg.Queue, r.IPC)
		}
	}
}
