package core

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/uop"
)

// TestRecoveryMovedEntryCannotIssueSameCycle audits the interaction
// between §4.5 deadlock recovery (which runs in BeginCycle) and Issue's
// `e.arrived < cycle` gate: an instruction that recovery forces into
// segment 0 must not issue in that same cycle, even if its operands are
// already available — movement between segments always costs the cycle.
func TestRecoveryMovedEntryCannotIssueSameCycle(t *testing.T) {
	cfg := smallCfg(2, 1, 1)
	cfg.Bypass = false
	cfg.Pushdown = false
	q := MustNew(cfg)

	// Two one-entry segments: p wedged in segment 0 on a producer that
	// never completes, c above it on a producer that completes mid-wedge.
	ghostP := uop.New(990, loadInst(isa.RegNone, 8))
	ghostC := uop.New(991, loadInst(isa.RegNone, 9))
	p := uop.New(0, aluInst(isa.RegNone, isa.RegNone, 1))
	p.Prod[0] = ghostP
	c := uop.New(1, aluInst(isa.RegNone, isa.RegNone, 2))
	c.Prod[0] = ghostC

	q.Dispatch(0, p)
	q.BeginCycle(1) // p promotes to segment 0
	q.Dispatch(1, c)
	q.EndCycle(1, true)

	q.BeginCycle(2)
	if got := q.Issue(2, 8, always); len(got) != 0 {
		t.Fatal("nothing should be ready yet")
	}
	q.EndCycle(2, false) // stuck and idle: deadlock flagged

	// c's producer completes just before the recovery cycle: after
	// recovery rotates c into segment 0 it is data-ready for cycle 3.
	// The writeback call delivers the completion the way the pipeline
	// would (the ghost was never dispatched, so it only wakes c).
	ghostC.Complete = 2
	q.Writeback(2, ghostC)

	q.BeginCycle(3) // recovery: p recycled upward, c forced into segment 0
	if collect(q).MustGet("deadlock_recoveries") != 1 {
		t.Fatal("recovery did not run")
	}
	if q.ent(c).seg != 0 || q.ent(p).seg != 1 {
		t.Fatalf("rotation failed: c in %d, p in %d", q.ent(c).seg, q.ent(p).seg)
	}
	if !c.IssueReady(3) {
		t.Fatal("setup: c should be data-ready in the recovery cycle")
	}
	if got := q.Issue(3, 8, always); len(got) != 0 {
		t.Fatalf("entry moved by recovery issued in the same cycle: %v", got)
	}

	// One cycle later it issues normally, and the queue drains without
	// tripping removeFromSegment's consistency panic.
	q.BeginCycle(4)
	got := q.Issue(4, 8, always)
	if len(got) != 1 || got[0] != c {
		t.Fatalf("expected c to issue in cycle 4, got %v", got)
	}
	q.Writeback(5, c)
	ghostP.Complete = 5
	q.Writeback(5, ghostP)
	for cyc := int64(5); q.Len() > 0 && cyc < 12; cyc++ {
		q.BeginCycle(cyc)
		for _, u := range q.Issue(cyc, 8, always) {
			u.Complete = cyc + 1
			q.Writeback(cyc+1, u)
		}
		q.EndCycle(cyc, true)
	}
	if q.Len() != 0 {
		t.Errorf("queue did not drain after recovery: len=%d", q.Len())
	}
}

// TestRepeatedRecoveryKeepsSegmentsConsistent stress-drives the recovery
// path: a queue wedged behind a never-completing producer is forced
// through a recovery every cycle, with issue attempts interleaved, while
// the test checks after every cycle that the segment lists and the
// occupancy count stay consistent — i.e. that recovery's entry recycling
// can never leave an entry in a state where removeFromSegment would panic
// ("entry not found in its segment").
func TestRepeatedRecoveryKeepsSegmentsConsistent(t *testing.T) {
	cfg := smallCfg(4, 4, 2)
	cfg.MaxChains = 8
	q := MustNew(cfg)

	ghost := uop.New(9999, loadInst(isa.RegNone, 31))
	var wedged []*uop.UOp
	seq := int64(0)
	for q.Len() < q.Capacity() {
		u := uop.New(seq, aluInst(isa.RegNone, isa.RegNone, 1+int(seq)%8))
		u.Prod[0] = ghost
		if !q.Dispatch(0, u) {
			break
		}
		wedged = append(wedged, u)
		seq++
	}
	if len(wedged) == 0 {
		t.Fatal("setup: nothing dispatched")
	}

	check := func(cycle int64) {
		t.Helper()
		sum := 0
		for k := 0; k < cfg.Segments; k++ {
			for _, h := range q.segs[k] {
				e := &q.arena[h]
				if e.seg != k {
					t.Fatalf("cycle %d: entry seq=%d thinks it is in segment %d but lives in %d",
						cycle, e.u.Seq, e.seg, k)
				}
			}
			sum += q.SegmentLen(k)
		}
		if sum != q.Len() {
			t.Fatalf("cycle %d: segment lists hold %d entries, queue reports %d", cycle, sum, q.Len())
		}
	}

	// 60 cycles of wedged machine. Recoveries run on alternating cycles:
	// a recovery's own forced promotions count as progress, so the cycle
	// after one is not flagged, and the one after that is again.
	for cyc := int64(1); cyc <= 60; cyc++ {
		q.BeginCycle(cyc)
		if got := q.Issue(cyc, 2, always); len(got) != 0 {
			t.Fatalf("cycle %d: wedged instruction issued: %v", cyc, got)
		}
		q.EndCycle(cyc, false)
		check(cyc)
	}
	if rec := collect(q).MustGet("deadlock_recoveries"); rec < 25 {
		t.Fatalf("stress loop only ran %v recoveries", rec)
	}

	// Release the wedge: everything must drain cleanly, still without any
	// segment-consistency panic.
	ghost.Complete = 60
	q.Writeback(60, ghost)
	issued := 0
	for cyc := int64(61); issued < len(wedged) && cyc < 200; cyc++ {
		q.BeginCycle(cyc)
		for _, u := range q.Issue(cyc, 2, always) {
			issued++
			u.Complete = cyc + 1
			q.Writeback(cyc+1, u)
		}
		q.EndCycle(cyc, issued > 0)
		check(cyc)
	}
	if issued != len(wedged) || q.Len() != 0 {
		t.Errorf("drained %d/%d, len=%d", issued, len(wedged), q.Len())
	}
}
