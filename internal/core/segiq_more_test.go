package core

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/uop"
)

// TestChainGenerationIgnoresStaleSignals: a released chain wire is reused;
// signals asserted under the old generation must not affect the new use's
// members, and vice versa.
func TestChainGenerationIgnoresStaleSignals(t *testing.T) {
	cfg := smallCfg(4, 8, 8)
	cfg.MaxChains = 1
	q := MustNew(cfg)
	r := newTestRenamer()

	ld1 := r.rename(loadInst(isa.RegNone, 1))
	q.Dispatch(0, ld1)
	oldChain := q.ent(ld1).head

	// Issue the head and assert a suspend that will still be in flight
	// when the wire is reused.
	q.BeginCycle(1)
	if got := q.Issue(1, 8, always); len(got) != 1 {
		t.Fatal("load did not issue")
	}
	q.NotifyLoadMiss(1, ld1)
	ld1.Complete = 2
	// Complete + writeback release the wire while the suspend signal is
	// still travelling up the pipe.
	q.NotifyLoadComplete(2, ld1)
	q.Writeback(2, ld1)

	// Reuse the wire for a second load; park a member of the NEW chain in
	// segment 2, where the OLD generation's suspend will arrive.
	ld2 := r.rename(loadInst(isa.RegNone, 2))
	if !q.Dispatch(2, ld2) {
		t.Fatal("wire not reusable")
	}
	newChain := q.ent(ld2).head
	if newChain.id != oldChain.id || newChain.gen == oldChain.gen {
		t.Fatalf("expected same wire, new generation: old %+v new %+v", oldChain, newChain)
	}
	member := addRaw(q, 2, 99, 0, 10)
	member.refs[0] = chainRef{ch: newChain, due: q.ticks + 8, headLoc: 0, selfTimed: true}
	member.nrefs = 1
	q.link(member)

	// Step cycles so the old-generation signals pass segment 2.
	for cycle := int64(2); cycle <= 6; cycle++ {
		q.BeginCycle(cycle)
	}
	if member.refs[0].suspended {
		t.Fatal("stale suspend from the previous generation applied to new chain member")
	}
	// Five BeginCycles ticked the healthy self-timed countdown.
	if member.refs[0].delayAt(q.ticks) != 8-5 {
		t.Fatalf("self-timed countdown disturbed: delay %d", member.refs[0].delayAt(q.ticks))
	}
}

// TestPushdownNeverDisplacesPromotion: §4.1 — pushdown augments
// promotion; eligible instructions take the bandwidth first.
func TestPushdownNeverDisplacesPromotion(t *testing.T) {
	cfg := smallCfg(2, 4, 2) // bandwidth 2; pushdown active when freeK<2, freeDest>3
	q := MustNew(cfg)
	// Segment 1: two eligible (delay 0) and two ineligible (delay 99):
	// full, so the pushdown condition (free < IW) holds, but the two
	// eligible instructions must consume the whole bandwidth.
	e0 := addRaw(q, 1, 0, 0, -1)
	e1 := addRaw(q, 1, 1, 0, -1)
	x0 := addRaw(q, 1, 2, 99, -1)
	x1 := addRaw(q, 1, 3, 99, -1)
	q.BeginCycle(1)
	if e0.seg != 0 || e1.seg != 0 {
		t.Fatal("eligible entries not promoted")
	}
	if x0.seg != 1 || x1.seg != 1 {
		t.Fatal("pushdown displaced a normal promotion")
	}
}

// TestHMPMispredictedHitFloodsSegmentZero: §4.4 — a load wrongly
// predicted to hit creates no chain; its dependents count down on the
// hit schedule and occupy segment 0 long before the data arrives.
func TestHMPMispredictedHitFloodsSegmentZero(t *testing.T) {
	cfg := smallCfg(4, 8, 8)
	cfg.UseHMP = true
	q := MustNew(cfg)
	r := newTestRenamer()

	// Train the HMP to confidence at one PC.
	pc := uint64(0x9000)
	for i := 0; i < 14; i++ {
		ld := r.rename(loadInst(isa.RegNone, 1))
		ld.Inst.PC = pc
		q.Dispatch(int64(i), ld)
		e := q.ent(ld)
		ld.Complete = int64(i)
		ld.MemKind = uop.MemHit
		q.NotifyLoadComplete(int64(i), ld)
		q.Writeback(int64(i), ld)
		q.removeEverywhere(e)
	}
	// The next load at this PC is predicted to hit (no chain) but will
	// actually miss. Its dependents flood downward on the hit schedule.
	ld := r.rename(loadInst(isa.RegNone, 1))
	ld.Inst.PC = pc
	q.Dispatch(100, ld)
	if q.ent(ld).isHead {
		t.Fatal("setup: load should be chainless")
	}
	var consumers []*uop.UOp
	for i := 0; i < 4; i++ {
		c := r.rename(aluInst(1, isa.RegNone, 2+i))
		q.Dispatch(100, c)
		consumers = append(consumers, c)
	}
	// The load issues but misses; the data never comes back in this test.
	q.BeginCycle(101)
	q.Issue(101, 8, func(u *uop.UOp) bool { return u == ld })
	for cycle := int64(102); cycle <= 112; cycle++ {
		q.BeginCycle(cycle)
	}
	// All consumers have drained into segment 0, unready — the paper's
	// described failure mode ("flood segment 0 well in advance of
	// becoming ready").
	inSeg0 := 0
	for _, c := range consumers {
		if q.SegmentOf(c) == 0 && !c.Ready(112) {
			inSeg0++
		}
	}
	if inSeg0 != len(consumers) {
		t.Fatalf("%d/%d unready consumers in segment 0; mispredicted hit should flood it",
			inSeg0, len(consumers))
	}
}

// TestSuspendedStateInheritedAtDispatch: a consumer dispatched while its
// producer's chain is suspended must start suspended and resume with it.
func TestSuspendedStateInheritedAtDispatch(t *testing.T) {
	q := MustNew(smallCfg(2, 8, 8))
	r := newTestRenamer()
	ld := r.rename(loadInst(isa.RegNone, 1))
	q.Dispatch(0, ld)
	q.BeginCycle(1)
	q.Issue(1, 8, always)
	q.NotifyLoadMiss(4, ld) // table sees the suspend immediately

	con := r.rename(aluInst(1, isa.RegNone, 2))
	q.Dispatch(5, con)
	ce := q.ent(con)
	if !ce.refs[0].selfTimed || !ce.refs[0].suspended {
		t.Fatalf("consumer should inherit self-timed+suspended: %+v", ce.refs[0])
	}
	d := ce.refs[0].delayAt(q.ticks)
	q.BeginCycle(6)
	if ce.refs[0].delayAt(q.ticks) != d {
		t.Fatal("suspended consumer counted down")
	}
	ld.Complete = 30
	q.NotifyLoadComplete(30, ld)
	if ce.refs[0].suspended {
		t.Fatal("resume not delivered to segment-0 consumer")
	}
}

// TestIssueAssertionReachesTableImmediately: a consumer dispatched in the
// same cycle its producer's head issued must see the self-timed state
// (the chain wires terminate at the dispatch stage).
func TestIssueAssertionReachesTableImmediately(t *testing.T) {
	q := MustNew(smallCfg(4, 8, 8))
	r := newTestRenamer()
	ld := r.rename(loadInst(isa.RegNone, 1))
	q.Dispatch(0, ld)
	q.BeginCycle(1)
	if got := q.Issue(1, 8, always); len(got) != 1 {
		t.Fatal("load did not issue")
	}
	con := r.rename(aluInst(1, isa.RegNone, 2))
	q.Dispatch(1, con)
	ce := q.ent(con)
	if !ce.refs[0].selfTimed {
		t.Fatal("table lagged the issue assertion")
	}
	// Delay = the load's remaining predicted latency.
	if ce.refs[0].delayAt(q.ticks) != 4 {
		t.Fatalf("delay = %d, want predicted load latency 4", ce.refs[0].delayAt(q.ticks))
	}
}

// TestSignalCrossingCaughtUp: an entry promoted into a segment during the
// same cycle a signal occupies it must observe that signal rather than
// cross it in flight.
func TestSignalCrossingCaughtUp(t *testing.T) {
	q := MustNew(smallCfg(4, 8, 8))
	ch, _ := q.chains.alloc()
	head := addRaw(q, 0, 0, 0, -1)
	head.isHead = true
	head.head = ch
	// Member: eligible to promote (small delay), suspended self-timed
	// membership in the head's chain, parked at segment 3.
	m := addRaw(q, 3, 1, 0, -1)
	m.refs[0] = chainRef{ch: ch, delay: 1, selfTimed: true, suspended: true}
	m.nrefs = 1
	q.link(m)

	// Cycle 1: head issues; a resume is asserted at segment 0.
	q.BeginCycle(1)
	q.Issue(1, 8, func(u *uop.UOp) bool { return u == head.u })
	q.assertAt(0, signal{ch: ch, typ: sigResume})

	// Cycles 2..3: the resume climbs 0→1→2 while the member promotes
	// 3→2→1; they meet at segment 2 or cross between 2 and 1. With
	// catch-up the member must be resumed by cycle 3.
	q.BeginCycle(2)
	q.BeginCycle(3)
	if m.refs[0].suspended {
		t.Fatal("member crossed the resume signal and stayed suspended")
	}
}

// TestAccessors covers the diagnostic accessors.
func TestAccessors(t *testing.T) {
	q := MustNew(smallCfg(2, 8, 8))
	u := uop.New(0, aluInst(isa.RegNone, isa.RegNone, 1))
	if q.DelayOf(u) != -1 || q.SegmentOf(u) != -1 {
		t.Fatal("undispatched uop should report -1")
	}
	q.Dispatch(0, u)
	if q.DelayOf(u) != 0 {
		t.Fatal("delay accessor")
	}
	if q.SegmentOf(u) != 0 {
		t.Fatal("segment accessor")
	}
	q.BeginCycle(1)
	q.Issue(1, 8, always)
	if q.SegmentOf(u) != -1 {
		t.Fatal("issued uop should report -1 segment")
	}
}

// TestTwoChainMemberControlledByLaterOperand: §3.2 — a two-chain
// instruction promotes by the larger of its delay values.
func TestTwoChainMemberControlledByLaterOperand(t *testing.T) {
	cfg := smallCfg(4, 8, 8)
	cfg.Bypass = false
	q := MustNew(cfg)
	r := newTestRenamer()
	ldA := r.rename(loadInst(isa.RegNone, 1))
	ldB := r.rename(loadInst(isa.RegNone, 2))
	q.Dispatch(0, ldA)
	q.Dispatch(0, ldB)
	join := r.rename(aluInst(1, 2, 3))
	q.Dispatch(0, join)
	je := q.ent(join)
	if je.nrefs != 2 {
		t.Fatal("setup: expected two memberships")
	}
	// Manually decay one membership to zero: the other still controls.
	je.refs[0].delay = 0
	if got := je.effDelay(q.ticks); got != je.refs[1].delayAt(q.ticks) {
		t.Fatalf("effective delay %d should follow the later operand %d", got, je.refs[1].delayAt(q.ticks))
	}
}

// TestUnlimitedChainsNeverStall: MaxChains == 0 must never reject
// dispatch for chain reasons.
func TestUnlimitedChainsNeverStall(t *testing.T) {
	q := MustNew(smallCfg(16, 32, 8))
	r := newTestRenamer()
	for i := 0; i < 300; i++ {
		ld := r.rename(loadInst(isa.RegNone, 1+i%20))
		if !q.Dispatch(int64(i), ld) {
			t.Fatalf("dispatch %d stalled with unlimited chains", i)
		}
	}
	if got := collect(q).MustGet("iq_stall_nochain"); got != 0 {
		t.Fatalf("chain stalls = %v", got)
	}
}

// TestPerThreadRegisterTables: under SMT the register information table
// is replicated per context; two threads writing the same architectural
// register must not cross-link chains.
func TestPerThreadRegisterTables(t *testing.T) {
	cfg := smallCfg(4, 8, 8)
	cfg.Threads = 2
	q := MustNew(cfg)

	// Thread 0: a load producing r1.
	ld0 := uop.New(0, loadInst(isa.RegNone, 1))
	ld0.Thread = 0
	q.Dispatch(0, ld0)
	// Thread 1: an ALU producing the same architectural r1 (no chain).
	alu1 := uop.New(1, aluInst(isa.RegNone, isa.RegNone, 1))
	alu1.Thread = 1
	q.Dispatch(0, alu1)

	// Thread 1's consumer of r1 must NOT join thread 0's load chain.
	con1 := uop.New(2, aluInst(1, isa.RegNone, 2))
	con1.Thread = 1
	q.Dispatch(0, con1)
	e1 := q.ent(con1)
	if e1.nrefs == 1 && e1.refs[0].ch == q.ent(ld0).head {
		t.Fatal("thread 1 consumer joined thread 0's chain")
	}
	// Thread 0's consumer of r1 joins the load chain.
	con0 := uop.New(3, aluInst(1, isa.RegNone, 2))
	con0.Thread = 0
	q.Dispatch(0, con0)
	e0 := q.ent(con0)
	if e0.nrefs != 1 || e0.refs[0].ch != q.ent(ld0).head {
		t.Fatal("thread 0 consumer did not join its own chain")
	}
}
