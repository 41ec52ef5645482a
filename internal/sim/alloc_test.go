package sim

import "testing"

// TestCloneActiveAllocsBounded pins the allocation count of the
// snapshot/fork hot path: one ladder rung (CloneActive) plus its
// retirement (Recycle). With the line-array pool in internal/mem a
// steady-state rung costs ~1.4k allocations — dominated by the in-flight
// uop clones, which scale with machine occupancy, not machine size. The
// bound is deliberately loose; it exists to catch a regression that
// starts allocating per cache line or per queue slot again (tens of
// thousands of allocations), not to freeze the exact count.
func TestCloneActiveAllocsBounded(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops items under the race detector; allocation bounds do not hold")
	}
	cfg := SegmentedConfig(256, 0, true, true)
	ck, err := NewCheckpoint(cfg, ContextSpec{Workload: "swim", Seed: 1, Warm: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	p, err := ck.Fork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(5_000); err != nil {
		t.Fatal(err)
	}
	// Step to a snapshot boundary, then warm the buffer pool with one
	// clone/recycle round so the measured runs see steady state.
	for i := 0; i < 100_000 && p.inExec != 0; i++ {
		p.Step()
	}
	first, err := p.CloneActive()
	if err != nil {
		t.Fatal(err)
	}
	first.Recycle()
	const maxAllocs = 5_000
	if avg := testing.AllocsPerRun(20, func() {
		c, err := p.CloneActive()
		if err != nil {
			panic(err)
		}
		c.Recycle()
	}); avg > maxAllocs {
		t.Errorf("CloneActive+Recycle = %.0f allocs/op, want <= %d — did a per-line or per-slot allocation sneak into the snapshot path?", avg, maxAllocs)
	}
}

// TestRecycleReusesLineArrays verifies the pool actually round-trips: a
// machine forked after another was recycled must not grow the process
// footprint by a full hierarchy's line arrays. Measured as allocated
// bytes per fork+recycle cycle staying well under one hierarchy's line
// storage (the L2 alone is several hundred KiB).
func TestRecycleReusesLineArrays(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops items under the race detector; allocation bounds do not hold")
	}
	cfg := DefaultConfig(QueueIdeal, 64)
	ck, err := NewCheckpoint(cfg, ContextSpec{Workload: "swim", Seed: 1, Warm: 1_000})
	if err != nil {
		t.Fatal(err)
	}
	fork := func() {
		p, err := ck.Fork(cfg)
		if err != nil {
			panic(err)
		}
		p.Recycle()
	}
	fork() // warm the pool
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fork()
		}
	})
	// One L2's line array alone is ~384 KiB; three caches re-allocated
	// per fork would dwarf this bound.
	if bytes := res.AllocedBytesPerOp(); bytes > 300_000 {
		t.Errorf("fork+recycle allocates %d B/op — line arrays are not being reused", bytes)
	}
}
