package trace

import (
	"math"
	"testing"

	"repro/internal/isa"
)

// TestChainProfileExact pins the dependence-window machinery on a
// hand-computed four-instruction dataflow graph:
//
//	i0: r1 = r2 op r3   depth 1
//	i1: r4 = r1 op r1   depth 2
//	i2: r5 = r4 op r1   depth 3
//	i3: r6 = r2 op r3   depth 1 (independent)
func TestChainProfileExact(t *testing.T) {
	ins := []isa.Inst{
		{PC: 0x10, Class: isa.IntAlu, Src1: 2, Src2: 3, Dest: 1},
		{PC: 0x14, Class: isa.IntAlu, Src1: 1, Src2: 1, Dest: 4},
		{PC: 0x18, Class: isa.IntAlu, Src1: 4, Src2: 1, Dest: 5},
		{PC: 0x1c, Class: isa.IntAlu, Src1: 2, Src2: 3, Dest: 6},
	}
	p := Characterize(FromSlice("dag", ins), len(ins))

	if p.Instructions != 4 {
		t.Fatalf("instructions = %d, want 4", p.Instructions)
	}
	// Depths 1,2,3,1: two in bucket 0 (depth 1), two in bucket 1 (2-3).
	wantDepth := [ChainBuckets]int{0: 2, 1: 2}
	if p.DepthHist != wantDepth {
		t.Errorf("DepthHist = %v, want %v", p.DepthHist, wantDepth)
	}
	// Level widths: depth1 holds 2 instructions, depths 2 and 3 hold one
	// each: two levels in bucket 0 (width 1), one in bucket 1 (width 2).
	wantWidth := [ChainBuckets]int{0: 2, 1: 1}
	if p.WidthHist != wantWidth {
		t.Errorf("WidthHist = %v, want %v", p.WidthHist, wantWidth)
	}
	if got, want := p.MeanChainDepth, 7.0/4; math.Abs(got-want) > 1e-9 {
		t.Errorf("MeanChainDepth = %v, want %v", got, want)
	}
	if got, want := p.MeanChainWidth, 4.0/3; math.Abs(got-want) > 1e-9 {
		t.Errorf("MeanChainWidth = %v, want %v", got, want)
	}
	if p.CritPathWin != 3 || p.CritPathSub != 3 {
		t.Errorf("crit paths = %v/%v, want 3/3", p.CritPathSub, p.CritPathWin)
	}
	// The walked critical path is i2 <- i1 <- i0, all IntAlu.
	if got := p.CritClassFrac[isa.IntAlu]; got != 1 {
		t.Errorf("CritClassFrac[IntAlu] = %v, want 1", got)
	}
	if got, want := p.MixFrac[isa.IntAlu], 1.0; got != want {
		t.Errorf("MixFrac[IntAlu] = %v, want %v", got, want)
	}
}

// TestChainProfileWindowBoundary checks that full windows are folded in
// exactly once: every instruction lands in the depth histogram whether
// the stream ends on a window boundary or not.
func TestChainProfileWindowBoundary(t *testing.T) {
	for _, n := range []int{ChainWindow, ChainWindow + 7, 3*ChainWindow + 1, ChainSubWindow} {
		ins := make([]isa.Inst, n)
		for i := range ins {
			// A single serial chain: r1 = r1 op r1.
			ins[i] = isa.Inst{PC: 0x10, Class: isa.IntAlu, Src1: 1, Src2: 1, Dest: 1}
		}
		p := Characterize(FromSlice("serial", ins), n)
		total := 0
		for _, c := range p.DepthHist {
			total += c
		}
		if total != n {
			t.Errorf("n=%d: depth histogram holds %d instructions", n, total)
		}
		// A serial chain's critical path spans the whole window.
		if n >= ChainWindow && p.CritPathWin != ChainWindow {
			t.Errorf("n=%d: CritPathWin = %v, want %v", n, p.CritPathWin, ChainWindow)
		}
		if p.CritPathSub != ChainSubWindow {
			t.Errorf("n=%d: CritPathSub = %v, want %v", n, p.CritPathSub, ChainSubWindow)
		}
	}
}

// TestWorkloadChainShapes pins the profile dimensions on the bundled
// workloads: the dependence and predictability contrasts between them
// (DESIGN.md §2's substitution contract, extended).
func TestWorkloadChainShapes(t *testing.T) {
	prof := make(map[string]Profile)
	for _, name := range Names() {
		prof[name] = Characterize(mustNew(t, name), 50000)
	}

	for name, p := range prof {
		// Mix fractions must mirror ClassFraction and sum to one.
		sum := 0.0
		for c := isa.Class(0); c < isa.NumClasses; c++ {
			if p.MixFrac[c] != p.ClassFraction(c) {
				t.Errorf("%s: MixFrac[%v] = %v != ClassFraction %v", name, c, p.MixFrac[c], p.ClassFraction(c))
			}
			sum += p.MixFrac[c]
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: mix fractions sum to %v", name, sum)
		}
		// Critical paths grow with window size but stay below it.
		if p.CritPathWin <= p.CritPathSub {
			t.Errorf("%s: crit path %v/%d not above %v/%d", name, p.CritPathWin, ChainWindow, p.CritPathSub, ChainSubWindow)
		}
		if p.CritPathWin > ChainWindow || p.CritPathSub > ChainSubWindow {
			t.Errorf("%s: crit path exceeds its window (%v/%v)", name, p.CritPathSub, p.CritPathWin)
		}
		if p.MeanChainDepth < 1 || p.MeanChainWidth < 1 {
			t.Errorf("%s: degenerate chain stats depth=%v width=%v", name, p.MeanChainDepth, p.MeanChainWidth)
		}
	}

	// twolf chases pointers: its window critical paths are load-dominated.
	if got := prof["twolf"].CritClassFrac[isa.Load]; got < 0.5 {
		t.Errorf("twolf: crit-path load fraction %.2f, want pointer-chasing (>0.5)", got)
	}
	// swim's serial bottleneck is its loop-carried integer recurrences,
	// not memory.
	if got := prof["swim"].CritClassFrac[isa.Load]; got > 0.3 {
		t.Errorf("swim: crit-path load fraction %.2f, want streaming (<0.3)", got)
	}

	// Branch predictability: the stencil codes are near-perfectly
	// predictable, gcc is not — by an order of magnitude.
	if got := prof["mgrid"].BranchLocalMiss; got > 0.05 {
		t.Errorf("mgrid: local-predictor miss %.3f, want near-perfect", got)
	}
	if got := prof["gcc"].BranchLocalMiss; got < 0.10 {
		t.Errorf("gcc: local-predictor miss %.3f, want hard-to-predict (>0.10)", got)
	}
	if prof["gcc"].BranchLocalMiss < 5*prof["swim"].BranchLocalMiss {
		t.Errorf("gcc local miss %.3f not well above swim's %.3f",
			prof["gcc"].BranchLocalMiss, prof["swim"].BranchLocalMiss)
	}
	if prof["gcc"].BranchEntropy < 0.3 || prof["mgrid"].BranchEntropy > 0.05 {
		t.Errorf("branch entropy gcc %.2f / mgrid %.2f, want >0.3 / <0.05",
			prof["gcc"].BranchEntropy, prof["mgrid"].BranchEntropy)
	}
	// Bias-miss floors: predictable loops sit at ~0.
	if got := prof["swim"].BranchBiasMiss; got > 0.02 {
		t.Errorf("swim: bias miss %.3f, want ~0", got)
	}

	// Streaming proxy: equake streams new lines; gcc is resident.
	if got := prof["equake"].NewLinesPerLoad; got < 0.4 {
		t.Errorf("equake: new-line/load %.2f, want streaming", got)
	}
	if got := prof["gcc"].NewLinesPerLoad; got > 0.25 {
		t.Errorf("gcc: new-line/load %.2f, want resident", got)
	}

	// ILP contrast: the stencils expose wider levels than the pointer
	// chaser.
	if prof["mgrid"].MeanChainWidth <= prof["twolf"].MeanChainWidth {
		t.Errorf("mgrid width %.1f not above twolf %.1f",
			prof["mgrid"].MeanChainWidth, prof["twolf"].MeanChainWidth)
	}
}
