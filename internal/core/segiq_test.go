package core

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/uop"
)

// testRenamer mimics the pipeline's renamer: it wires Prod edges from the
// most recent in-flight writer of each architectural register.
type testRenamer struct {
	last map[int]*uop.UOp
	seq  int64
}

func newTestRenamer() *testRenamer { return &testRenamer{last: make(map[int]*uop.UOp)} }

func (r *testRenamer) rename(in isa.Inst) *uop.UOp {
	u := uop.New(r.seq, in)
	r.seq++
	for j, src := range [...]int{in.Src1, in.Src2} {
		if src == isa.RegNone || src == isa.RegZero {
			continue
		}
		if p, ok := r.last[src]; ok && p.Complete == uop.NotYet {
			u.Prod[j] = p
		}
	}
	if in.HasDest() {
		r.last[in.Dest] = u
	}
	return u
}

func aluInst(s1, s2, d int) isa.Inst {
	return isa.Inst{Class: isa.IntAlu, Src1: s1, Src2: s2, Dest: d}
}

func loadInst(addrReg, d int) isa.Inst {
	return isa.Inst{Class: isa.Load, Src1: addrReg, Src2: isa.RegNone, Dest: d, Size: 8, Addr: 0x1000}
}

func always(*uop.UOp) bool { return true }

// addRaw plants an entry with a frozen delay value directly into a
// segment — white-box scaffolding for promotion-machinery tests. The
// chainless, non-self-timed reference neither decays nor hears signals.
// A test that gives the entry chain memberships afterwards registers them
// with q.link, as Dispatch does. The returned pointer stays valid while
// the queue holds no more entries than its capacity, for which New
// reserves the arena.
func addRaw(q *SegmentedIQ, seg int, seq int64, delay int, arrived int64) *entry {
	u := uop.New(seq, aluInst(isa.RegNone, isa.RegNone, 1))
	h := q.newEntry(u, seg, arrived)
	e := &q.arena[h]
	if delay > 0 {
		e.refs[0] = chainRef{ch: chainNone, delay: delay}
		e.nrefs = 1
	}
	u.IQ = q.boxed[h]
	q.segInsert(seg, e, q.sb.Track(h, u, q.curCycle), u.IsStore())
	q.total++
	return e
}

func smallCfg(segments, segSize, iw int) Config {
	return Config{
		Segments: segments, SegSize: segSize, IssueWidth: iw,
		Pushdown: true, Bypass: true, DeadlockRecovery: true,
		PredictedLoadLatency: 4,
	}
}

func TestInterfaceBasics(t *testing.T) {
	q := MustNew(DefaultConfig(512, 128))
	if q.Name() != "segmented" {
		t.Error("name")
	}
	if q.Capacity() != 512 {
		t.Errorf("capacity = %d", q.Capacity())
	}
	if q.ExtraDispatchStages() != 1 {
		t.Error("segmented IQ costs one extra dispatch stage")
	}
	if q.Config().Segments != 16 {
		t.Error("config accessor")
	}
}

func TestDispatchBypassPlacement(t *testing.T) {
	q := MustNew(smallCfg(4, 2, 8))
	r := newTestRenamer()

	// Empty queue: bypass everything, land in segment 0.
	u0 := r.rename(aluInst(isa.RegNone, isa.RegNone, 1))
	if !q.Dispatch(0, u0) {
		t.Fatal("dispatch failed")
	}
	if e := q.ent(u0); e.seg != 0 {
		t.Fatalf("first instruction in segment %d, want 0 (full bypass)", e.seg)
	}
	// Highest non-empty segment has room: join it.
	u1 := r.rename(aluInst(isa.RegNone, isa.RegNone, 2))
	q.Dispatch(0, u1)
	if e := q.ent(u1); e.seg != 0 {
		t.Fatalf("second instruction in segment %d, want 0", e.seg)
	}
	// Segment 0 now full: overflow into the empty segment above.
	u2 := r.rename(aluInst(isa.RegNone, isa.RegNone, 3))
	q.Dispatch(0, u2)
	if e := q.ent(u2); e.seg != 1 {
		t.Fatalf("third instruction in segment %d, want 1", e.seg)
	}
	if q.Len() != 3 {
		t.Errorf("len = %d", q.Len())
	}
}

func TestDispatchNoBypass(t *testing.T) {
	cfg := smallCfg(4, 2, 8)
	cfg.Bypass = false
	q := MustNew(cfg)
	u := uop.New(0, aluInst(isa.RegNone, isa.RegNone, 1))
	q.Dispatch(0, u)
	if e := q.ent(u); e.seg != 3 {
		t.Fatalf("without bypass instruction must enter the top segment, got %d", e.seg)
	}
}

func TestDispatchFullStall(t *testing.T) {
	cfg := smallCfg(2, 1, 8)
	cfg.Bypass = false
	q := MustNew(cfg)
	if !q.Dispatch(0, uop.New(0, aluInst(isa.RegNone, isa.RegNone, 1))) {
		t.Fatal("first dispatch failed")
	}
	if q.Dispatch(0, uop.New(1, aluInst(isa.RegNone, isa.RegNone, 2))) {
		t.Fatal("dispatch into full top segment accepted")
	}
	s := stats.NewSet()
	q.CollectStats(s)
	if s.MustGet("iq_stall_full") != 1 {
		t.Error("full stall not counted")
	}
}

func TestDelayValueInitFormula(t *testing.T) {
	// A load head dispatched into segment S gives consumers delay
	// 2*S + latency (§3.3).
	cfg := smallCfg(4, 8, 8)
	cfg.Bypass = false // force the load into segment 3
	q := MustNew(cfg)
	r := newTestRenamer()

	ld := r.rename(loadInst(isa.RegNone, 5))
	q.Dispatch(0, ld)
	if e := q.ent(ld); !e.isHead {
		t.Fatal("load must head a chain in the base design")
	}
	con := r.rename(aluInst(5, isa.RegNone, 6))
	q.Dispatch(0, con)
	e := q.ent(con)
	if e.nrefs != 1 {
		t.Fatalf("consumer memberships = %d", e.nrefs)
	}
	// S_H = 3, D_H = predicted load latency 4: delay = 2*3 + 4 = 10.
	if got := e.effDelay(q.ticks); got != 10 {
		t.Fatalf("consumer delay = %d, want 10", got)
	}
	if e.refs[0].headLoc != 3 {
		t.Fatalf("headLoc = %d, want 3", e.refs[0].headLoc)
	}
	// A second-level consumer adds the producer's own latency.
	con2 := r.rename(aluInst(6, isa.RegNone, 7))
	q.Dispatch(0, con2)
	if got := q.ent(con2).effDelay(q.ticks); got != 2*3+4+1 {
		t.Fatalf("transitive delay = %d, want 11", got)
	}
}

func TestPromotionRespectsThresholds(t *testing.T) {
	q := MustNew(smallCfg(3, 8, 8))
	// delay 5 entry: threshold(1)=4 refuses it; threshold... wait, it sits
	// in segment 2; promotion into 1 needs delay < 4.
	e5 := addRaw(q, 2, 0, 5, -1)
	e3 := addRaw(q, 2, 1, 3, -1) // < 4: promotes to segment 1, then stalls (>= 2)
	e1 := addRaw(q, 2, 2, 1, -1) // promotes all the way down

	q.BeginCycle(1)
	if e5.seg != 2 || e3.seg != 1 || e1.seg != 1 {
		t.Fatalf("after cycle 1: segs %d %d %d", e5.seg, e3.seg, e1.seg)
	}
	q.BeginCycle(2)
	if e3.seg != 1 {
		t.Fatalf("delay-3 entry entered segment 0 (threshold 2): seg %d", e3.seg)
	}
	if e1.seg != 0 {
		t.Fatalf("delay-1 entry should reach segment 0, at %d", e1.seg)
	}
}

func TestPromotionBandwidthAndPrevFree(t *testing.T) {
	q := MustNew(smallCfg(2, 8, 3)) // issue width (= promotion bandwidth) 3
	for i := int64(0); i < 6; i++ {
		addRaw(q, 1, i, 0, -1)
	}
	q.BeginCycle(1)
	if got := q.SegmentLen(0); got != 3 {
		t.Fatalf("promoted %d, want bandwidth limit 3", got)
	}
	// Oldest first.
	for _, h := range q.segs[0] {
		e := &q.arena[h]
		if e.u.Seq >= 3 {
			t.Fatalf("younger instruction %d promoted before older", e.u.Seq)
		}
	}

	// prevFree: fill segment 0 to 6/8 during this cycle via dispatch;
	// next cycle only min(bw, prevFree, actual) promote.
	q2 := MustNew(smallCfg(2, 8, 8))
	for i := int64(0); i < 8; i++ {
		addRaw(q2, 1, i, 0, -1)
	}
	// Occupy 6 slots of segment 0, marked as arrived long ago.
	for i := int64(100); i < 106; i++ {
		e := addRaw(q2, 0, i, 0, -1)
		e.u.Prod[0] = uop.New(999, aluInst(isa.RegNone, isa.RegNone, 1)) // never ready
		q2.refresh(e)
	}
	q2.BeginCycle(1)
	if got := 8 - q2.SegmentLen(1); got != 2 {
		t.Fatalf("promoted %d, want 2 (segment 0 had 2 free)", got)
	}
}

func TestNoSameCyclePromotionOrIssue(t *testing.T) {
	q := MustNew(smallCfg(2, 8, 8))
	e := addRaw(q, 1, 0, 0, 5) // arrived in cycle 5
	q.BeginCycle(5)            // same cycle: must not move
	if e.seg != 1 {
		t.Fatal("entry moved in its arrival cycle")
	}
	q.BeginCycle(6)
	if e.seg != 0 {
		t.Fatal("entry should move the next cycle")
	}
	// arrived set to 6: cannot issue at 6.
	if got := q.Issue(6, 8, always); len(got) != 0 {
		t.Fatal("issued in arrival cycle")
	}
	if got := q.Issue(7, 8, always); len(got) != 1 {
		t.Fatal("should issue the following cycle")
	}
}

func TestIssueOldestReadyFirstAndWidth(t *testing.T) {
	q := MustNew(smallCfg(1, 8, 8))
	blocked := uop.New(99, aluInst(isa.RegNone, isa.RegNone, 1))
	for i := int64(0); i < 5; i++ {
		e := addRaw(q, 0, 4-i, 0, -1) // inserted youngest-first
		_ = e
	}
	// Make seq 2 unready.
	for _, h := range q.segs[0] {
		e := &q.arena[h]
		if e.u.Seq == 2 {
			e.u.Prod[0] = blocked
			q.refresh(e)
			break
		}
	}
	got := q.Issue(0, 3, always)
	if len(got) != 3 {
		t.Fatalf("issued %d, want 3", len(got))
	}
	wantSeqs := []int64{0, 1, 3} // 2 is unready
	for i, u := range got {
		if u.Seq != wantSeqs[i] {
			t.Fatalf("issue order %v", got)
		}
	}
	// Function-unit rejection skips but does not block younger ops.
	got = q.Issue(1, 8, func(u *uop.UOp) bool { return u.Seq != 4 })
	if len(got) != 0 {
		t.Fatalf("only seq 4 remains ready; it was rejected, got %v", got)
	}
}

func TestChainStallAndRelease(t *testing.T) {
	cfg := smallCfg(2, 8, 8)
	cfg.MaxChains = 1
	q := MustNew(cfg)
	r := newTestRenamer()

	ld1 := r.rename(loadInst(isa.RegNone, 1))
	if !q.Dispatch(0, ld1) {
		t.Fatal("first load rejected")
	}
	ld2 := r.rename(loadInst(isa.RegNone, 2))
	if q.Dispatch(0, ld2) {
		t.Fatal("second chain allocation should stall dispatch")
	}
	s := stats.NewSet()
	q.CollectStats(s)
	if s.MustGet("iq_stall_nochain") != 1 {
		t.Error("chain stall not counted")
	}
	if q.ChainsInUse() != 1 {
		t.Errorf("chains in use = %d", q.ChainsInUse())
	}

	// Issue the load, complete it, write it back: the chain frees and the
	// stalled load dispatches.
	got := q.Issue(1, 8, always)
	if len(got) != 1 {
		t.Fatal("load did not issue")
	}
	ld1.Complete = 5
	q.NotifyLoadComplete(5, ld1)
	q.Writeback(6, ld1)
	if q.ChainsInUse() != 0 {
		t.Error("chain not released at writeback")
	}
	if !q.Dispatch(7, ld2) {
		t.Fatal("dispatch still stalled after chain release")
	}
}

func TestTwoOutstandingOperandsHeadCreation(t *testing.T) {
	q := MustNew(smallCfg(4, 8, 8))
	r := newTestRenamer()

	ldA := r.rename(loadInst(isa.RegNone, 1))
	ldB := r.rename(loadInst(isa.RegNone, 2))
	q.Dispatch(0, ldA)
	q.Dispatch(0, ldB)
	join := r.rename(aluInst(1, 2, 3))
	q.Dispatch(0, join)
	e := q.ent(join)
	if e.nrefs != 2 {
		t.Fatalf("two-chain instruction memberships = %d, want 2", e.nrefs)
	}
	if !e.isHead {
		t.Fatal("base design: two-chain instruction must head a new chain (§3.4)")
	}
	if q.ChainsInUse() != 3 {
		t.Errorf("chains = %d, want 3", q.ChainsInUse())
	}
	s := stats.NewSet()
	q.CollectStats(s)
	if s.MustGet("two_outstanding_diff_chains") != 1 {
		t.Error("two-outstanding-diff-chains stat wrong")
	}
	if s.MustGet("chain_heads_twochain") != 1 {
		t.Error("two-chain head stat wrong")
	}
	// A consumer of the join follows only the join's new chain.
	con := r.rename(aluInst(3, isa.RegNone, 4))
	q.Dispatch(0, con)
	ce := q.ent(con)
	if ce.nrefs != 1 || ce.refs[0].ch != e.head {
		t.Fatal("consumer should follow the join's chain")
	}
}

func TestSameChainTwoOperandsMergesMembership(t *testing.T) {
	q := MustNew(smallCfg(4, 8, 8))
	r := newTestRenamer()
	ld := r.rename(loadInst(isa.RegNone, 1))
	q.Dispatch(0, ld)
	a := r.rename(aluInst(1, isa.RegNone, 2)) // on ld's chain
	b := r.rename(aluInst(1, isa.RegNone, 3)) // on ld's chain
	q.Dispatch(0, a)
	q.Dispatch(0, b)
	join := r.rename(aluInst(2, 3, 4))
	q.Dispatch(0, join)
	e := q.ent(join)
	if e.nrefs != 1 {
		t.Fatalf("same-chain operands should merge to one membership, got %d", e.nrefs)
	}
	if e.isHead {
		t.Fatal("same-chain join must not create a chain")
	}
	if q.ChainsInUse() != 1 {
		t.Errorf("chains = %d, want 1", q.ChainsInUse())
	}
}

func TestLRPLimitsToOneChain(t *testing.T) {
	cfg := smallCfg(4, 8, 8)
	cfg.UseLRP = true
	q := MustNew(cfg)
	r := newTestRenamer()
	ldA := r.rename(loadInst(isa.RegNone, 1))
	ldB := r.rename(loadInst(isa.RegNone, 2))
	q.Dispatch(0, ldA)
	q.Dispatch(0, ldB)
	join := r.rename(aluInst(1, 2, 3))
	q.Dispatch(0, join)
	e := q.ent(join)
	if e.nrefs != 1 {
		t.Fatalf("LRP instruction memberships = %d, want 1", e.nrefs)
	}
	if e.isHead {
		t.Fatal("LRP: no chain creation for two-operand instructions (§4.3)")
	}
	if !e.lrpTracked {
		t.Fatal("prediction must be scored")
	}
	if q.ChainsInUse() != 2 {
		t.Errorf("chains = %d, want 2 (loads only)", q.ChainsInUse())
	}
}

func TestHMPSuppressesChainsForPredictedHits(t *testing.T) {
	cfg := smallCfg(4, 8, 8)
	cfg.UseHMP = true
	q := MustNew(cfg)
	r := newTestRenamer()

	// Train the HMP to confidence with 14 hitting loads at one PC.
	pc := uint64(0x4000)
	for i := 0; i < 14; i++ {
		ld := r.rename(loadInst(isa.RegNone, 1))
		ld.Inst.PC = pc
		if !q.Dispatch(int64(i), ld) {
			t.Fatal("dispatch failed")
		}
		e := q.ent(ld)
		if !e.isHead {
			t.Fatal("unconfident load should still head a chain")
		}
		// Simulate issue + hit completion + writeback.
		ld.IssueCycle = int64(i)
		ld.Complete = int64(i) + 4
		ld.MemKind = uop.MemHit
		q.NotifyLoadComplete(ld.Complete, ld)
		q.Writeback(ld.Complete+1, ld)
		q.removeEverywhere(e)
	}
	// Next load at this PC: predicted hit, no chain.
	ld := r.rename(loadInst(isa.RegNone, 1))
	ld.Inst.PC = pc
	q.Dispatch(100, ld)
	if q.ent(ld).isHead {
		t.Fatal("confidently hit-predicted load must not head a chain (§4.4)")
	}
	if q.ChainsInUse() != 0 {
		t.Errorf("chains = %d, want 0", q.ChainsInUse())
	}
	// Its consumer self-times from dispatch with the hit latency baked in.
	con := r.rename(aluInst(1, isa.RegNone, 2))
	q.Dispatch(100, con)
	ce := q.ent(con)
	if ce.nrefs != 1 || !ce.refs[0].selfTimed {
		t.Fatalf("consumer of chainless load should be self-timed: %+v", ce.refs[0])
	}
}

// removeEverywhere is test scaffolding: extracts an entry from whichever
// segment holds it (simulating issue without the full protocol).
func (q *SegmentedIQ) removeEverywhere(e *entry) {
	for k := range q.segs {
		for _, h := range q.segs[k] {
			if h == e.id {
				q.removeFromSegment(k, e)
				q.total--
				return
			}
		}
	}
}

func TestChainWirePipelining(t *testing.T) {
	// Head in segment 0, members in segments 1 and 3. When the head
	// issues, the member in segment 1 must observe the assertion one
	// cycle later than segment 0 would, and the member in segment 3 two
	// cycles after that.
	q := MustNew(smallCfg(4, 8, 8))
	ch, _ := q.chains.alloc()

	head := addRaw(q, 0, 0, 0, -1)
	head.isHead = true
	head.head = ch

	m1 := addRaw(q, 1, 1, 0, 10) // arrived guard keeps them parked
	m1.refs[0] = chainRef{ch: ch, delay: 6, headLoc: 0}
	m1.nrefs = 1
	q.link(m1)
	m3 := addRaw(q, 3, 2, 0, 10)
	m3.refs[0] = chainRef{ch: ch, delay: 10, headLoc: 0}
	m3.nrefs = 1
	q.link(m3)

	// Cycle 1: head issues, asserting at segment 0.
	q.BeginCycle(1)
	if got := q.Issue(1, 8, always); len(got) != 1 {
		t.Fatal("head did not issue")
	}
	if m1.refs[0].selfTimed {
		t.Fatal("segment-1 member saw the signal in the assertion cycle")
	}
	// Cycle 2: signal reaches segment 1 (self-timed starts), and the
	// member ticks... observation precedes tick in BeginCycle, so delay
	// drops by one this cycle.
	m1.arrived = 10 // keep it from promoting for clean observation
	q.BeginCycle(2)
	if !m1.refs[0].selfTimed {
		t.Fatal("segment-1 member missed the pipelined signal")
	}
	if m3.refs[0].selfTimed {
		t.Fatal("segment-3 member saw the signal too early")
	}
	q.BeginCycle(3)
	if m3.refs[0].selfTimed {
		t.Fatal("signal should reach segment 3 at cycle 4")
	}
	q.BeginCycle(4)
	if !m3.refs[0].selfTimed {
		t.Fatal("segment-3 member missed the signal")
	}
}

func TestInstantWiresAblation(t *testing.T) {
	cfg := smallCfg(4, 8, 8)
	cfg.InstantWires = true
	q := MustNew(cfg)
	ch, _ := q.chains.alloc()
	head := addRaw(q, 0, 0, 0, -1)
	head.isHead = true
	head.head = ch
	m3 := addRaw(q, 3, 1, 0, 10)
	m3.refs[0] = chainRef{ch: ch, delay: 10, headLoc: 0}
	m3.nrefs = 1
	q.link(m3)

	q.BeginCycle(1)
	q.Issue(1, 8, always)
	if !m3.refs[0].selfTimed {
		t.Fatal("instant wires must deliver in the assertion cycle")
	}
}

func TestSuspendResumeOnLoadMiss(t *testing.T) {
	q := MustNew(smallCfg(2, 8, 8))
	r := newTestRenamer()
	ld := r.rename(loadInst(isa.RegNone, 1))
	q.Dispatch(0, ld)
	con := r.rename(aluInst(1, isa.RegNone, 2))
	q.Dispatch(0, con)
	ce := q.ent(con)

	q.BeginCycle(1)
	issued := q.Issue(1, 8, always)
	if len(issued) != 1 || issued[0] != ld {
		t.Fatalf("load should issue first: %v", issued)
	}
	// Consumer (in segment 0, delay 4) sees the issue assertion in the
	// same cycle it was asserted (both in segment 0).
	if !ce.refs[0].selfTimed {
		t.Fatal("consumer did not enter self-timed mode on head issue")
	}
	d0 := ce.refs[0].delayAt(q.ticks)

	// The load misses: suspend.
	q.NotifyLoadMiss(4, ld)
	if !ce.refs[0].suspended {
		t.Fatal("suspend signal not delivered")
	}
	q.BeginCycle(5)
	q.BeginCycle(6)
	if ce.refs[0].delayAt(q.ticks) != d0 {
		t.Fatal("suspended member kept counting")
	}
	// Data returns: resume; countdown continues.
	ld.Complete = 50
	ld.MemKind = uop.MemMiss
	q.NotifyLoadComplete(50, ld)
	if ce.refs[0].suspended {
		t.Fatal("resume signal not delivered")
	}
	q.BeginCycle(51)
	if ce.refs[0].delayAt(q.ticks) != d0-1 {
		t.Fatal("countdown did not resume")
	}
}

func TestPushdown(t *testing.T) {
	cfg := smallCfg(2, 4, 2) // IW=2: pushdown when freeK<2 and freeDest>3
	q := MustNew(cfg)
	// Segment 1 has 3 entries (free=1 < 2), all ineligible (delay 99).
	for i := int64(0); i < 3; i++ {
		addRaw(q, 1, i, 99, -1)
	}
	q.BeginCycle(1)
	if q.SegmentLen(0) != 2 {
		t.Fatalf("pushdown moved %d, want IW=2", q.SegmentLen(0))
	}
	for _, h := range q.segs[0] {
		e := &q.arena[h]
		if !e.pushedDown {
			t.Fatal("entries should be marked as pushed down")
		}
		if e.u.Seq > 1 {
			t.Fatal("pushdown must take the oldest ineligible instructions")
		}
	}
	s := stats.NewSet()
	q.CollectStats(s)
	if s.MustGet("iq_pushdowns") != 2 {
		t.Error("pushdown stat wrong")
	}

	// With pushdown disabled nothing moves.
	cfg.Pushdown = false
	q2 := MustNew(cfg)
	for i := int64(0); i < 3; i++ {
		addRaw(q2, 1, i, 99, -1)
	}
	q2.BeginCycle(1)
	if q2.SegmentLen(0) != 0 {
		t.Fatal("pushdown ran while disabled")
	}
}

func TestPushdownRequiresEmptyDestination(t *testing.T) {
	cfg := smallCfg(2, 4, 2)
	q := MustNew(cfg)
	for i := int64(0); i < 3; i++ {
		addRaw(q, 1, i, 99, -1)
	}
	// Destination has only 3 free (need > 3): block pushdown.
	blocker := uop.New(50, aluInst(isa.RegNone, isa.RegNone, 1))
	blocker.Prod[0] = uop.New(99, aluInst(isa.RegNone, isa.RegNone, 2))
	e := &q.arena[q.newEntry(blocker, 0, -1)]
	q.segInsert(0, e, false, false)
	q.total++
	q.BeginCycle(1)
	if q.SegmentLen(0) != 1 {
		t.Fatal("pushdown ran without >1.5*IW free entries below")
	}
}

func TestDeadlockDetectionAndRecovery(t *testing.T) {
	cfg := smallCfg(2, 1, 1)
	cfg.Bypass = false
	cfg.Pushdown = false
	q := MustNew(cfg)

	// A producer that never completes keeps both queued entries unready.
	ghost := uop.New(999, loadInst(isa.RegNone, 9))
	p := uop.New(0, aluInst(isa.RegNone, isa.RegNone, 1))
	p.Prod[0] = ghost
	c := uop.New(1, aluInst(isa.RegNone, isa.RegNone, 2))
	c.Prod[0] = ghost

	q.Dispatch(0, p) // top segment
	q.BeginCycle(1)  // p (delay 0) promotes to segment 0
	if q.ent(p).seg != 0 {
		t.Fatal("setup: producer should sink to segment 0")
	}
	q.Dispatch(1, c) // fills the top segment
	q.EndCycle(1, true)

	// Now: both segments full, nothing ready, nothing active.
	q.BeginCycle(2)
	if got := q.Issue(2, 8, always); len(got) != 0 {
		t.Fatal("nothing should be ready")
	}
	q.EndCycle(2, false)
	s := stats.NewSet()
	q.CollectStats(s)
	if s.MustGet("deadlock_cycles") != 1 {
		t.Fatal("deadlock not detected")
	}

	// Recovery runs next cycle: the bottom instruction is recycled to the
	// top and the upper instruction forced down.
	q.BeginCycle(3)
	if s2 := collect(q); s2.MustGet("deadlock_recoveries") != 1 {
		t.Fatal("recovery did not run")
	}
	if q.ent(p).seg != 1 || q.ent(c).seg != 0 {
		t.Fatalf("rotation failed: p in %d, c in %d", q.ent(p).seg, q.ent(c).seg)
	}

	// Once the ghost completes, both instructions drain. The writeback
	// call delivers the completion the way the pipeline would (the ghost
	// was never dispatched, so it only wakes its consumers).
	ghost.Complete = 3
	q.Writeback(3, ghost)
	q.BeginCycle(4)
	if got := q.Issue(4, 8, always); len(got) != 1 {
		t.Fatal("recovered instruction did not issue")
	}
	q.BeginCycle(5)
	q.BeginCycle(6)
	if got := q.Issue(6, 8, always); len(got) != 1 {
		t.Fatal("second instruction did not drain")
	}
	if q.Len() != 0 {
		t.Errorf("len = %d", q.Len())
	}
}

func collect(q *SegmentedIQ) *stats.Set {
	s := stats.NewSet()
	q.CollectStats(s)
	return s
}

func TestNoDeadlockWhenMachineActive(t *testing.T) {
	cfg := smallCfg(2, 1, 1)
	cfg.Bypass = false
	q := MustNew(cfg)
	ghost := uop.New(999, loadInst(isa.RegNone, 9))
	p := uop.New(0, aluInst(isa.RegNone, isa.RegNone, 1))
	p.Prod[0] = ghost
	q.Dispatch(0, p)
	q.EndCycle(0, false) // dispatch counts as progress
	if collect(q).MustGet("deadlock_cycles") != 0 {
		t.Fatal("cycle with dispatch progress misdetected")
	}
	q.BeginCycle(1) // p promotes toward segment 0: progress
	q.EndCycle(1, false)
	if collect(q).MustGet("deadlock_cycles") != 0 {
		t.Fatal("cycle with promotion progress misdetected")
	}
	q.BeginCycle(2) // nothing can move, but the machine is busy elsewhere
	q.EndCycle(2, true)
	if collect(q).MustGet("deadlock_cycles") != 0 {
		t.Fatal("active machine misdetected as deadlock")
	}
	q.BeginCycle(3) // nothing moves and nothing is active: flagged
	q.EndCycle(3, false)
	if collect(q).MustGet("deadlock_cycles") != 1 {
		t.Fatal("idle cycle with stuck queue not flagged")
	}
}

func TestWritebackClearsRegTable(t *testing.T) {
	q := MustNew(smallCfg(2, 8, 8))
	r := newTestRenamer()
	ld := r.rename(loadInst(isa.RegNone, 1))
	q.Dispatch(0, ld)
	if !q.table[1].valid {
		t.Fatal("table row not created")
	}
	// A younger writer replaces the row; the old producer's writeback
	// must not clear it.
	ld2 := r.rename(loadInst(isa.RegNone, 1))
	q.Dispatch(0, ld2)
	q.Writeback(5, ld)
	if !q.table[1].valid || q.table[1].producer != ld2 {
		t.Fatal("younger producer's row clobbered by older writeback")
	}
	q.Writeback(6, ld2)
	if q.table[1].valid {
		t.Fatal("row not cleared at producer writeback")
	}
}

func TestSegmentOneDegeneratesToConventional(t *testing.T) {
	// One segment: dispatch straight into the issue buffer, no promotion
	// machinery, readiness-driven issue.
	q := MustNew(smallCfg(1, 32, 8))
	r := newTestRenamer()
	ld := r.rename(loadInst(isa.RegNone, 1))
	con := r.rename(aluInst(1, isa.RegNone, 2))
	q.Dispatch(0, ld)
	q.Dispatch(0, con)
	q.BeginCycle(1)
	got := q.Issue(1, 8, always)
	if len(got) != 1 || got[0] != ld {
		t.Fatalf("issue = %v", got)
	}
	// Load data at cycle 8, announced as LSQ.finishLoad does.
	ld.Complete = 8
	q.NotifyLoadComplete(8, ld)
	q.BeginCycle(8)
	if got := q.Issue(8, 8, always); len(got) != 1 || got[0] != con {
		t.Fatalf("consumer issue = %v", got)
	}
}

func TestBackToBackDependentIssue(t *testing.T) {
	// Producer issues at t, 1-cycle latency: consumer must issue at t+1.
	q := MustNew(smallCfg(1, 32, 8))
	r := newTestRenamer()
	p := r.rename(aluInst(isa.RegNone, isa.RegNone, 1))
	c := r.rename(aluInst(1, isa.RegNone, 2))
	q.Dispatch(0, p)
	q.Dispatch(0, c)
	q.BeginCycle(1)
	got := q.Issue(1, 8, always)
	if len(got) != 1 || got[0] != p {
		t.Fatalf("cycle 1 issue = %v", got)
	}
	p.Complete = 2 // 1-cycle ALU result, fully bypassed
	q.BeginCycle(2)
	if got := q.Issue(2, 8, always); len(got) != 1 || got[0] != c {
		t.Fatalf("back-to-back issue failed: %v", got)
	}
}

func TestCollectStatsComplete(t *testing.T) {
	cfg := smallCfg(2, 8, 8)
	cfg.UseHMP = true
	cfg.UseLRP = true
	q := MustNew(cfg)
	s := collect(q)
	for _, name := range []string{
		"iq_dispatched", "iq_issued", "iq_stall_full", "iq_stall_nochain",
		"iq_promotions", "iq_pushdowns", "iq_occupancy_avg",
		"iq_ready_seg0_avg", "iq_ready_total_avg", "chains_avg",
		"chains_peak", "chain_heads", "two_outstanding",
		"deadlock_cycles", "deadlock_recoveries",
		"hmp_hit_pred_accuracy", "hmp_hit_coverage", "lrp_accuracy",
	} {
		if _, ok := s.Get(name); !ok {
			t.Errorf("missing stat %q", name)
		}
	}
}

func TestSegmentGating(t *testing.T) {
	// §7 dynamic resizing: gate a 4-segment queue to its bottom 2
	// segments; dispatch must stop targeting the gated region while
	// in-flight instructions above it drain normally.
	cfg := smallCfg(4, 2, 8)
	cfg.Bypass = false
	q := MustNew(cfg)
	if q.ActiveSegments() != 4 {
		t.Fatal("queue should start fully powered")
	}
	// Park an instruction in segment 3 (the soon-to-be-gated region).
	parked := addRaw(q, 3, 0, 0, 0)
	q.SetActiveSegments(2)
	if q.ActiveSegments() != 2 {
		t.Fatal("gating not applied")
	}
	// Without bypass, dispatch now targets segment 1.
	u := uop.New(1, aluInst(isa.RegNone, isa.RegNone, 1))
	if !q.Dispatch(1, u) {
		t.Fatal("dispatch failed")
	}
	if got := q.ent(u).seg; got != 1 {
		t.Fatalf("dispatched into segment %d, want active top 1", got)
	}
	// The parked instruction still drains through the gated segments.
	for cycle := int64(2); cycle <= 6; cycle++ {
		q.BeginCycle(cycle)
	}
	if parked.seg != 0 {
		t.Fatalf("parked instruction at segment %d, want drained to 0", parked.seg)
	}
	// Clamping.
	q.SetActiveSegments(0)
	if q.ActiveSegments() != 1 {
		t.Fatal("lower clamp")
	}
	q.SetActiveSegments(99)
	if q.ActiveSegments() != 4 {
		t.Fatal("upper clamp")
	}
}

func TestSegmentGatingWithBypass(t *testing.T) {
	cfg := smallCfg(8, 2, 8)
	q := MustNew(cfg)
	q.SetActiveSegments(3)
	// Fill segments 0..2 completely: dispatch must stall rather than use
	// a gated segment.
	for i := int64(0); i < 6; i++ {
		u := uop.New(i, aluInst(isa.RegNone, isa.RegNone, 1))
		if !q.Dispatch(0, u) {
			t.Fatalf("dispatch %d failed", i)
		}
		if q.ent(u).seg > 2 {
			t.Fatalf("instruction placed in gated segment %d", q.ent(u).seg)
		}
	}
	if q.Dispatch(0, uop.New(9, aluInst(isa.RegNone, isa.RegNone, 1))) {
		t.Fatal("dispatch into gated region accepted")
	}
	s := collect(q)
	if s.MustGet("iq_stall_full") != 1 {
		t.Error("gated stall not counted")
	}
	q.BeginCycle(1)
	if _, ok := s.Get("segments_active_avg"); !ok {
		t.Error("gating stat missing")
	}
}
