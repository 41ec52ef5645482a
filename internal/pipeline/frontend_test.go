package pipeline

import (
	"testing"

	"repro/internal/bpred"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/uop"
)

func newTestFE(t *testing.T, ins []isa.Inst) (*FrontEnd, *mem.Hierarchy) {
	t.Helper()
	h := mem.MustNewHierarchy(mem.DefaultHierarchyConfig())
	bp := bpred.MustNewPredictor(bpred.DefaultConfig())
	btb := bpred.MustNewBTB(4096, 4)
	fe := NewFrontEnd(DefaultFrontEndConfig(), trace.FromSlice("t", ins), bp, btb, h.L1I)
	return fe, h
}

func seqAlu(n int, basePC uint64) []isa.Inst {
	ins := make([]isa.Inst, n)
	for i := range ins {
		ins[i] = isa.Inst{PC: basePC + uint64(4*i), Class: isa.IntAlu,
			Src1: isa.RegNone, Src2: isa.RegNone, Dest: 1}
	}
	return ins
}

func TestFrontEndDepthAndDelivery(t *testing.T) {
	fe, h := newTestFE(t, seqAlu(4, 0x1000))
	if fe.Depth() != 15 {
		t.Fatalf("depth = %d, want 10+5", fe.Depth())
	}
	// The first line misses the I-cache: fetch stalls until the fill.
	fe.Fetch(0)
	if fe.BufLen() != 1 {
		t.Fatalf("fetched %d, want 1 before the line stall", fe.BufLen())
	}
	for c := int64(0); c <= 300 && fe.BufLen() < 4; c++ {
		h.Tick(c)
		fe.Fetch(c)
	}
	if fe.BufLen() != 4 {
		t.Fatalf("buffered %d, want 4", fe.BufLen())
	}
	if fe.ICacheStallCycles() == 0 {
		t.Error("cold I-cache miss should have stalled fetch")
	}
	// Delivery honours the pipeline depth.
	first := fe.buf.at(0)
	if fe.NextReady(first.readyAt-1) != nil {
		t.Fatal("delivered before traversing the front end")
	}
	if fe.NextReady(first.readyAt) == nil {
		t.Fatal("not delivered at readyAt")
	}
	fe.Pop()
	if fe.BufLen() != 3 {
		t.Fatal("pop")
	}
}

func TestFrontEndExtraDispatchStage(t *testing.T) {
	h := mem.MustNewHierarchy(mem.DefaultHierarchyConfig())
	cfg := DefaultFrontEndConfig()
	cfg.ExtraDispatch = 1
	fe := NewFrontEnd(cfg, trace.FromSlice("t", seqAlu(1, 0x1000)),
		bpred.MustNewPredictor(bpred.DefaultConfig()), bpred.MustNewBTB(4096, 4), h.L1I)
	if fe.Depth() != 16 {
		t.Fatalf("depth = %d, want 16", fe.Depth())
	}
}

func TestFrontEndMispredictStall(t *testing.T) {
	ins := seqAlu(2, 0x1000)
	br := isa.Inst{PC: 0x1008, Class: isa.Branch, Src1: 1, Src2: isa.RegNone,
		Taken: true, Target: 0x2000}
	ins = append(ins, br)
	ins = append(ins, seqAlu(3, 0x2000)...)
	fe, h := newTestFE(t, ins)

	warm := func() {
		for c := int64(0); c <= 400; c++ {
			h.Tick(c)
			fe.Fetch(c)
			if fe.BufLen() >= 3 {
				return
			}
		}
	}
	warm()
	// A cold taken branch has no BTB entry: mispredicted, fetch stalls.
	if fe.Mispredicts() != 1 {
		t.Fatalf("mispredicts = %d, want 1 (cold BTB)", fe.Mispredicts())
	}
	brUop := fe.buf.at(fe.BufLen() - 1).u
	if !brUop.Mispredicted || !brUop.IsBranch() {
		t.Fatal("branch uop not flagged")
	}
	before := fe.BufLen()
	fe.Fetch(500)
	if fe.BufLen() != before {
		t.Fatal("fetch continued past an unresolved misprediction")
	}
	if fe.BranchStallCycles() == 0 {
		t.Fatal("stall cycles not counted")
	}
	// Resolve the branch: fetch resumes.
	brUop.Complete = 501
	for c := int64(501); c <= 900 && fe.BufLen() < 6; c++ {
		h.Tick(c)
		fe.Fetch(c)
	}
	if fe.BufLen() != 6 {
		t.Fatalf("post-resolve fetch delivered %d, want 6", fe.BufLen())
	}
}

func TestFrontEndTakenBranchEndsGroup(t *testing.T) {
	// A predicted, BTB-known taken branch ends the fetch group but does
	// not stall.
	ins := []isa.Inst{
		{PC: 0x3000, Class: isa.Branch, Src1: 1, Src2: isa.RegNone, Taken: true, Target: 0x3000},
	}
	// Repeat the same branch so predictor and BTB warm up.
	var loop []isa.Inst
	for i := 0; i < 40; i++ {
		loop = append(loop, ins[0])
	}
	fe, h := newTestFE(t, loop)
	for c := int64(0); c <= 2000 && !fe.Done(); c++ {
		h.Tick(c)
		fe.Fetch(c)
		for fe.NextReady(c) != nil {
			u := fe.NextReady(c)
			if u.Mispredicted {
				u.Complete = c + 1 // resolve instantly
			}
			fe.Pop()
		}
	}
	if fe.Branches() != 40 {
		t.Fatalf("branches = %d", fe.Branches())
	}
	// After warm-up the loop branch predicts perfectly: few mispredicts.
	if fe.Mispredicts() > 5 {
		t.Fatalf("mispredicts = %d on a trivial loop", fe.Mispredicts())
	}
}

func TestFrontEndMaxBranchesPerCycle(t *testing.T) {
	// Five not-taken branches on one line: at most three fetched per
	// cycle.
	var ins []isa.Inst
	for i := 0; i < 5; i++ {
		ins = append(ins, isa.Inst{PC: 0x4000 + uint64(4*i), Class: isa.Branch,
			Src1: 1, Src2: isa.RegNone, Taken: false})
	}
	fe, h := newTestFE(t, ins)
	// Warm the I-cache line first.
	for c := int64(0); c <= 300 && fe.BufLen() == 0; c++ {
		h.Tick(c)
		fe.Fetch(c)
	}
	for c := int64(301); fe.BufLen() > 0; c++ {
		if fe.NextReady(c) != nil {
			fe.Pop()
		}
		if c > 1000 {
			t.Fatal("drain stuck")
		}
	}
	start := fe.Fetched()
	fe.Fetch(1001)
	got := fe.Fetched() - start
	if got > 3 {
		t.Fatalf("fetched %d branches in one cycle, max 3", got)
	}
}

func TestFrontEndDone(t *testing.T) {
	fe, h := newTestFE(t, seqAlu(2, 0x5000))
	for c := int64(0); c <= 400 && !fe.Done(); c++ {
		h.Tick(c)
		fe.Fetch(c)
		if u := fe.NextReady(c); u != nil {
			_ = u
			fe.Pop()
		}
	}
	if !fe.Done() {
		t.Fatal("front end never drained")
	}
	fe.Fetch(401) // no-op after done
	if fe.BufLen() != 0 {
		t.Fatal("fetch after done produced instructions")
	}
	_ = uop.NotYet
}
