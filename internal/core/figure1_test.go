package core

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/uop"
)

// figure1Program builds the exact code sequence of Figure 1(a):
//
//	i0: add *,*   -> r1    lat 1
//	i1: mul *,*   -> r2    lat 2
//	i2: add r2,*  -> r4    lat 1
//	i3: mul r4,*  -> r6    lat 2
//	i4: mul r6,*  -> r8    lat 2
//	i5: add r1,*  -> r3    lat 1
//	i6: add r3,*  -> r5    lat 1
//	i7: add r5,*  -> r7    lat 1
//	i8: add r6,r7 -> r9    lat 1
//
// Operands marked * are available. ADD latency 1 (IntAlu) and MUL latency
// 2 are exactly the paper's assumptions... IntMul in Table 1 is 3 cycles,
// so the figure's 2-cycle MUL is modelled with FpAdd (latency 2).
func figure1Program() []isa.Inst {
	none := isa.RegNone
	add := func(s1, s2, d int) isa.Inst { return isa.Inst{Class: isa.IntAlu, Src1: s1, Src2: s2, Dest: d} }
	mul := func(s1, s2, d int) isa.Inst { return isa.Inst{Class: isa.FpAdd, Src1: s1, Src2: s2, Dest: d} } // 2-cycle op
	return []isa.Inst{
		add(none, none, 1), // i0
		mul(none, none, 2), // i1
		add(2, none, 4),    // i2
		mul(4, none, 6),    // i3
		mul(6, none, 8),    // i4
		add(1, none, 3),    // i5
		add(3, none, 5),    // i6
		add(5, none, 7),    // i7
		add(6, 7, 9),       // i8
	}
}

// TestFigure1DelayValues reproduces the delay-value column of Figure 1(a):
// dispatching the example sequence with all producers in the bottom
// segment yields delays 0,0,2,3,5,1,2,3,5.
func TestFigure1DelayValues(t *testing.T) {
	q := MustNew(smallCfg(3, 16, 8))
	r := newTestRenamer()

	want := []int{0, 0, 2, 3, 5, 1, 2, 3, 5}
	var uops []*uop.UOp
	for _, in := range figure1Program() {
		u := r.rename(in)
		if !q.Dispatch(0, u) {
			t.Fatalf("dispatch of %s failed", in.String())
		}
		uops = append(uops, u)
	}
	for i, u := range uops {
		if got := q.ent(u).effDelay(q.ticks); got != want[i] {
			t.Errorf("i%d delay = %d, want %d", i, got, want[i])
		}
	}

	// i8 depends (transitively) on two distinct roots. In the base design
	// its operands arrive via different... here both producer subtrees are
	// chainless (no loads), so no chain is allocated anywhere.
	if q.ChainsInUse() != 0 {
		t.Errorf("pure-ALU example allocated %d chains", q.ChainsInUse())
	}
	// Its delay must be the max of the two operand paths (r6: 5, r7: 4).
	if got := q.ent(uops[8]).effDelay(q.ticks); got != 5 {
		t.Errorf("i8 delay = %d, want max(5,4) = 5", got)
	}
}

// TestFigure1SegmentPlacement checks the paper's threshold-based placement
// intent with the figure's delays: delays 0..1 belong in segment 0
// (threshold 2), 2..3 in segment 1 (threshold 4), and 4+ in segment 2.
func TestFigure1SegmentPlacement(t *testing.T) {
	q := MustNew(smallCfg(3, 16, 8))
	// Plant the figure's delay values as frozen entries in the top
	// segment and let promotion distribute them.
	delays := []int{0, 0, 2, 3, 5, 1, 2, 3, 5}
	hs := make([]int32, len(delays))
	for i, d := range delays {
		hs[i] = addRaw(q, 2, int64(i), d, -1).id
	}
	// Segment-0 entries must not issue during settling (they are ready
	// uops); run promotion-only cycles.
	for cycle := int64(1); cycle <= 3; cycle++ {
		q.BeginCycle(cycle)
	}
	wantSeg := []int{0, 0, 1, 1, 2, 0, 1, 1, 2}
	for i, h := range hs {
		if e := &q.arena[h]; e.seg != wantSeg[i] {
			t.Errorf("i%d in segment %d, want %d (delay %d)", i, e.seg, wantSeg[i], delays[i])
		}
	}
}

// TestFigure1Drain runs the example to completion through the queue
// protocol: every instruction issues, respecting data dependences.
func TestFigure1Drain(t *testing.T) {
	q := MustNew(smallCfg(3, 16, 8))
	r := newTestRenamer()
	var uops []*uop.UOp
	for _, in := range figure1Program() {
		u := r.rename(in)
		q.Dispatch(0, u)
		uops = append(uops, u)
	}
	issueOf := map[*uop.UOp]int64{}
	for cycle := int64(1); cycle <= 40 && len(issueOf) < len(uops); cycle++ {
		q.BeginCycle(cycle)
		for _, u := range q.Issue(cycle, 8, always) {
			issueOf[u] = cycle
			u.Complete = cycle + int64(u.Latency())
			q.Writeback(u.Complete, u)
		}
		q.EndCycle(cycle, true)
	}
	if len(issueOf) != len(uops) {
		t.Fatalf("only %d/%d instructions issued", len(issueOf), len(uops))
	}
	// Dependences respected: consumer issue >= producer issue + latency.
	deps := [][2]int{{2, 1}, {3, 2}, {4, 3}, {5, 0}, {6, 5}, {7, 6}, {8, 3}, {8, 7}}
	for _, d := range deps {
		c, p := uops[d[0]], uops[d[1]]
		if issueOf[c] < issueOf[p]+int64(p.Latency()) {
			t.Errorf("i%d issued at %d before i%d's result (issue %d + lat %d)",
				d[0], issueOf[c], d[1], issueOf[p], p.Latency())
		}
	}
	// i0 and i1 are ready at dispatch: they issue in the first cycle.
	if issueOf[uops[0]] != 1 || issueOf[uops[1]] != 1 {
		t.Errorf("i0/i1 issued at %d/%d, want cycle 1", issueOf[uops[0]], issueOf[uops[1]])
	}
	// Back-to-back: i5 (1-cycle dependent of i0) issues at cycle 2.
	if issueOf[uops[5]] != 2 {
		t.Errorf("i5 issued at %d, want 2 (back-to-back after i0)", issueOf[uops[5]])
	}
}
