package core

import (
	"fmt"
	"math/bits"

	"repro/internal/bitvec"
	"repro/internal/bpred"
	"repro/internal/iq"
	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/uop"
)

// SegmentedIQ is the paper's segmented, dependence-chain-scheduled
// instruction queue. It implements iq.Queue.
type SegmentedIQ struct {
	cfg    Config
	segs   [][]*entry // segs[0] is the bottom segment / issue buffer
	chains *chainPool
	wires  *wirePipe
	table  regTable

	// ticks is the clock self-timed countdowns are stamped against: it
	// advances once per BeginCycle, after wire delivery, so a running
	// countdown's value is max(0, due-ticks) with no per-entry work.
	ticks int64
	// members indexes chain memberships by (wire, segment) and rows
	// register-table rows by wire (index.go).
	members [][]member
	rows    [][]int32
	// eligW holds the per-segment promotable bits and crossings the entry
	// ids whose running countdowns set more of them, by tick (index.go).
	eligW     [][]uint64
	crossings iq.Deadlines[int32]

	hmp *bpred.HitMissPredictor
	lrp *bpred.LeftRightPredictor

	prevFree []int // per-segment free slots at the end of the previous cycle
	total    int   // occupied slots across all segments

	// Per-segment readiness scoreboard. Segments are kept seq-sorted, so
	// readyW[k] bit i == "the i-th oldest instruction in segment k is
	// issue-ready": selecting the oldest ready instruction is a
	// TrailingZeros64 walk instead of a scan-and-sort. storeW marks store
	// slots (their ready bit gates on the address operand only; the
	// occupancy statistics correct for the data operand). Bits move with
	// their entries on every promotion, pushdown, recovery move, dispatch
	// and issue, and are set by the scoreboard's event-driven wakeup.
	readyW [][]uint64
	storeW [][]uint64
	sb     iq.Scoreboard
	byID   []*entry // scoreboard handle -> entry
	nextID int32
	// unresolved holds issued non-load producers whose completion times
	// the pipeline has not yet stamped; they resolve at the next
	// BeginCycle (the engine sets Complete right after Issue returns). A
	// load's completion arrives through NotifyLoadComplete instead.
	unresolved []*uop.UOp

	// Scratch buffers reused across cycles so the steady-state cycle loop
	// (BeginCycle → Issue) does not allocate. The slice Issue returns is
	// backed by outScratch and remains valid only until the next call.
	candScratch []*entry
	outScratch  []*uop.UOp
	// moveReady/moveStore carry the candidates' bits between the batch
	// removal and batch insertion halves of moveSelected.
	moveReady []bool
	moveStore []bool
	// entryPool recycles queue entries between writeback and dispatch, so
	// steady-state dispatch allocates nothing either.
	entryPool []*entry
	// active is the number of powered segments (§7 dynamic resizing):
	// dispatch only targets segments below it; gated segments drain and
	// stay empty.
	active int

	curCycle int64
	// moved records that an instruction issued, moved between segments or
	// dispatched this cycle; EndCycle's deadlock detector reads it.
	moved          bool
	recoverPending bool

	stDispatched     stats.Counter
	stIssued         stats.Counter
	stStallFull      stats.Counter
	stStallNoChain   stats.Counter
	stPromotions     stats.Counter
	stPushdowns      stats.Counter
	stHeads          stats.Counter
	stHeadLoads      stats.Counter
	stHeadTwoChain   stats.Counter
	stTwoOutstanding stats.Counter
	stTwoDiffChains  stats.Counter
	stDeadlockCycles stats.Counter
	stRecoveries     stats.Counter
	stWireAsserts    stats.Counter
	stOccupancy      stats.Mean
	stActiveSegs     stats.Mean
	stSegOcc         []stats.Mean // per-segment occupancy
	stReadySeg0      stats.Mean
	stReadyTotal     stats.Mean
	stDispatchSeg    stats.Mean

	demChains iq.Watermark // chains-in-use high-watermark, for prefix sharing
}

// New builds a segmented IQ from cfg.
func New(cfg Config) (*SegmentedIQ, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	q := &SegmentedIQ{
		cfg:      cfg,
		segs:     make([][]*entry, cfg.Segments),
		chains:   newChainPool(cfg.MaxChains),
		wires:    newWirePipe(cfg.Segments),
		table:    newRegTable(cfg.Threads),
		prevFree: make([]int, cfg.Segments),
		active:   cfg.Segments,
		stSegOcc: make([]stats.Mean, cfg.Segments),
	}
	for k := range q.prevFree {
		q.prevFree[k] = cfg.SegSize
	}
	q.readyW = make([][]uint64, cfg.Segments)
	q.storeW = make([][]uint64, cfg.Segments)
	q.eligW = make([][]uint64, cfg.Segments)
	for k := range q.readyW {
		q.readyW[k] = bitvec.New(cfg.SegSize)
		q.storeW[k] = bitvec.New(cfg.SegSize)
		q.eligW[k] = bitvec.New(cfg.SegSize)
	}
	if cfg.UseHMP {
		q.hmp = bpred.MustNewHMP()
	}
	if cfg.UseLRP {
		q.lrp = bpred.MustNewLRP()
	}
	return q, nil
}

// MustNew is New for known-good configurations.
func MustNew(cfg Config) *SegmentedIQ {
	q, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return q
}

// Name implements iq.Queue.
func (q *SegmentedIQ) Name() string { return "segmented" }

// Capacity implements iq.Queue.
func (q *SegmentedIQ) Capacity() int { return q.cfg.Segments * q.cfg.SegSize }

// Len implements iq.Queue.
func (q *SegmentedIQ) Len() int { return q.total }

// ExtraDispatchStages implements iq.Queue: the paper charges the segmented
// design one extra dispatch cycle for chain assignment.
func (q *SegmentedIQ) ExtraDispatchStages() int { return 1 }

// Config returns the queue's configuration.
func (q *SegmentedIQ) Config() Config { return q.cfg }

// catchUp delivers the signals currently present at segment k to an entry
// that just arrived there. Signals propagate upward while instructions
// move downward; without this, an instruction moving into a segment in
// the same cycle a signal sits there would cross it in flight and miss it
// permanently (e.g. a chain resume, leaving the member suspended forever).
func (q *SegmentedIQ) catchUp(e *entry, k int) {
	if q.cfg.InstantWires || e.wired == 0 {
		return
	}
	for _, s := range q.wires.at(k) {
		e.observe(s, q.ticks)
	}
}

// assertAt asserts a chain-wire signal at segment position k. In the
// pipelined model the signal is observed by segment k now and moves one
// segment up per cycle; with InstantWires it reaches everything above k
// immediately.
//
// The register information table observes every assertion in the
// asserting cycle, with no pipeline lag: the chain wires terminate at the
// dispatch stage. A lagged table would hand newly dispatched instructions
// stale (too-high) head locations; with segment bypass those instructions
// would then wait forever for advance assertions that had already passed
// below them.
func (q *SegmentedIQ) assertAt(k int, s signal) {
	q.stWireAsserts.Inc()
	q.observeRows(s)
	if q.cfg.InstantWires {
		q.deliver(s, k, q.cfg.Segments-1)
		return
	}
	q.wires.assert(k, s)
	q.deliver(s, k, k)
}

// newEntry takes an entry from the pool (or allocates one), keeps its
// stable scoreboard handle across the reset, and registers it in byID.
func (q *SegmentedIQ) newEntry(u *uop.UOp, seg int, arrived int64) *entry {
	var e *entry
	if n := len(q.entryPool); n > 0 {
		e = q.entryPool[n-1]
		q.entryPool[n-1] = nil
		q.entryPool = q.entryPool[:n-1]
		id := e.id
		*e = entry{u: u, seq: u.Seq, seg: seg, arrived: arrived, id: id}
	} else {
		e = &entry{u: u, seq: u.Seq, seg: seg, arrived: arrived, id: q.nextID}
		q.nextID++
		q.byID = append(q.byID, nil)
		q.sb.Grow(int(q.nextID))
	}
	q.byID[e.id] = e
	return e
}

// segRemove takes e out of segment k at its recorded position, shifting
// the tail and the bit-words down, unlinks it and marks it off-segment.
// It returns e's ready/store bits so a caller moving the entry to another
// segment can carry them along.
func (q *SegmentedIQ) segRemove(k int, e *entry) (ready, store bool) {
	i := int(e.pos)
	seg := q.segs[k]
	if i >= len(seg) || seg[i] != e {
		panic("core: entry not found in its segment")
	}
	q.unlink(e)
	ready = bitvec.Test(q.readyW[k], i)
	store = bitvec.Test(q.storeW[k], i)
	bitvec.Remove(q.readyW[k], i)
	bitvec.Remove(q.storeW[k], i)
	bitvec.Remove(q.eligW[k], i)
	copy(seg[i:], seg[i+1:])
	seg[len(seg)-1] = nil
	seg = seg[:len(seg)-1]
	q.segs[k] = seg
	for j := i; j < len(seg); j++ {
		seg[j].pos = int32(j)
	}
	e.seg = -1
	return ready, store
}

// segInsert places e into segment k at its sequence-ordered position,
// shifting the tail and bit-words up, carrying e's ready/store bits with
// it, and links it there.
func (q *SegmentedIQ) segInsert(k int, e *entry, ready, store bool) {
	seg := q.segs[k]
	lo, hi := 0, len(seg)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if seg[mid].seq < e.seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	seg = append(seg, nil)
	copy(seg[lo+1:], seg[lo:])
	seg[lo] = e
	q.segs[k] = seg
	bitvec.Insert(q.readyW[k], lo, ready)
	bitvec.Insert(q.storeW[k], lo, store)
	bitvec.Insert(q.eligW[k], lo, false)
	e.seg = k
	for j := lo; j < len(seg); j++ {
		seg[j].pos = int32(j)
	}
	q.link(e)
}

// setReady flips the ready bit of the entry behind scoreboard handle h.
func (q *SegmentedIQ) setReady(h int32) {
	e := q.byID[h]
	bitvec.Set(q.readyW[e.seg], int(e.pos))
}

// wakeConsumers tells the scoreboard that p's completion time resolved
// and marks every consumer that became issue-ready.
func (q *SegmentedIQ) wakeConsumers(p *uop.UOp) {
	for _, h := range q.sb.Wake(p, q.curCycle) {
		q.setReady(h)
	}
}

// advance moves the queue's internal clock to cycle: producers issued
// earlier whose completion the pipeline stamped after Issue returned
// resolve now, and readiness scheduled for this cycle comes due.
func (q *SegmentedIQ) advance(cycle int64) {
	q.curCycle = cycle
	if len(q.unresolved) > 0 {
		kept := q.unresolved[:0]
		for _, u := range q.unresolved {
			if u.Complete == uop.NotYet {
				kept = append(kept, u)
				continue
			}
			q.wakeConsumers(u)
		}
		for i := len(kept); i < len(q.unresolved); i++ {
			q.unresolved[i] = nil
		}
		q.unresolved = kept
	}
	for _, h := range q.sb.Due(cycle) {
		q.setReady(h)
	}
}

// refresh re-derives e's readiness from its instruction's current
// producers (test hook for drivers that rewrite Prod after dispatch).
func (q *SegmentedIQ) refresh(e *entry) {
	q.sb.Untrack(e.id)
	ready := q.sb.Track(e.id, e.u, q.curCycle)
	bitvec.Assign(q.readyW[e.seg], int(e.pos), ready)
}

// BeginCycle implements iq.Queue: wire propagation, self-timed countdown,
// deadlock recovery, promotion and pushdown.
func (q *SegmentedIQ) BeginCycle(cycle int64) {
	q.advance(cycle)
	q.moved = false

	// Promotion this cycle may use only the slots that were free at the
	// end of the previous cycle (§3.1: availability cannot be computed and
	// propagated through the whole queue in one cycle).
	for k := range q.segs {
		q.prevFree[k] = q.cfg.SegSize - len(q.segs[k])
	}

	// Advance the pipelined chain wires one segment and deliver. (The
	// register table saw each assertion already, in its asserting cycle.)
	if !q.cfg.InstantWires {
		q.wires.shift()
		for k := 0; k < q.cfg.Segments; k++ {
			for _, s := range q.wires.at(k) {
				q.deliver(s, k, k)
			}
		}
	}

	// Self-timed countdowns: one tick of the shared clock.
	q.ticks++
	q.dueCrossings()

	if q.recoverPending {
		q.recoverPending = false
		q.recover(cycle)
	}

	q.promote(cycle)
	q.sampleStats(cycle)
}

// sampleStats records the per-cycle statistics: occupancies and
// popcounts of the ready words. It has no effect on scheduling.
func (q *SegmentedIQ) sampleStats(cycle int64) {
	q.stOccupancy.Observe(float64(q.total))
	q.stActiveSegs.Observe(float64(q.active))
	for k := range q.segs {
		q.stSegOcc[k].Observe(float64(len(q.segs[k])))
	}
	// Conventional-wakeup readiness (both operands): popcount of the
	// ready words, minus ready stores whose data operand is still
	// outstanding (their ready bit gates on the address alone).
	ready0, readyAll := 0, 0
	for k := range q.segs {
		c := 0
		for wi, w := range q.readyW[k] {
			c += bits.OnesCount64(w)
			sw := w & q.storeW[k][wi]
			for sw != 0 {
				b := bits.TrailingZeros64(sw)
				sw &= sw - 1
				if !q.segs[k][wi<<6+b].u.OperandReady(0, cycle) {
					c--
				}
			}
		}
		readyAll += c
		if k == 0 {
			ready0 = c
		}
	}
	q.stReadySeg0.Observe(float64(ready0))
	q.stReadyTotal.Observe(float64(readyAll))
	q.chains.sample()
}

// promote moves eligible instructions one segment downward, oldest first,
// bounded by inter-segment bandwidth (= issue width) and the destination
// slots free at the end of the previous cycle; then applies pushdown
// (§4.1) with any remaining bandwidth.
func (q *SegmentedIQ) promote(cycle int64) {
	for k := 1; k < q.cfg.Segments; k++ {
		dest := k - 1
		budget := q.cfg.IssueWidth
		if q.prevFree[dest] < budget {
			budget = q.prevFree[dest]
		}
		if free := q.cfg.SegSize - len(q.segs[dest]); free < budget {
			budget = free
		}
		if budget <= 0 {
			continue
		}
		moved := q.moveSelected(k, dest, budget, cycle, pickEligible)
		budget -= moved

		if q.cfg.Pushdown && budget > 0 {
			freeK := q.cfg.SegSize - len(q.segs[k])
			freeDest := q.cfg.SegSize - len(q.segs[dest])
			// §4.1: the upper segment has fewer than IW free entries and
			// the one below has more than 1.5*IW free entries.
			if freeK < q.cfg.IssueWidth && 2*freeDest > 3*q.cfg.IssueWidth {
				n := budget
				if n > q.cfg.IssueWidth {
					n = q.cfg.IssueWidth
				}
				q.moveSelected(k, dest, n, cycle, pickBlocked)
			}
		}
	}
}

// pickMode selects the entries moveSelected moves, by their promotable
// bit and whether they have spent a cycle in their current segment.
type pickMode uint8

const (
	// pickEligible: promotion (§3.1) — settled, delay below threshold.
	pickEligible pickMode = iota
	// pickBlocked: pushdown (§4.1) — settled, delay at or above threshold.
	pickBlocked
	// pickBelow: forced recovery promotion (§4.5), preferred choice —
	// delay below threshold, settled or not.
	pickBelow
	// pickAny: forced recovery promotion fallback — the oldest entry.
	pickAny
)

// moveSelected moves up to n entries chosen by mode from segment k to
// segment dest, oldest (lowest sequence number) first, asserting chain
// wires for promoted heads. It returns the number moved. Moves by
// pickBlocked and pickAny count as pushdowns.
func (q *SegmentedIQ) moveSelected(k, dest, n int, cycle int64, mode pickMode) int {
	// The promotable bits are in position (= age) order, so taking set
	// bits low to high selects the n oldest matches.
	seg := q.segs[k]
	cand := q.candScratch[:0]
	if mode == pickAny {
		cand = append(cand, seg[:min(n, len(seg))]...)
	} else {
	scan:
		for wi, w := range q.eligW[k] {
			if mode == pickBlocked {
				w = ^w & occupied(len(seg), wi)
			}
			for w != 0 {
				e := seg[wi<<6+bits.TrailingZeros64(w)]
				w &= w - 1
				if mode != pickBelow && e.arrived >= cycle {
					continue
				}
				cand = append(cand, e)
				if len(cand) == n {
					break scan
				}
			}
		}
	}
	if len(cand) == 0 {
		q.candScratch = cand
		return 0
	}
	pushdown := mode == pickBlocked || mode == pickAny
	q.removeBatch(k, cand)
	for idx, e := range cand {
		e.arrived = cycle
		e.pushedDown = pushdown
		q.catchUp(e, dest)
		if e.isHead {
			s := signal{ch: e.head, typ: sigAdvance}
			q.assertAt(k, s)
			// Later candidates were still resident in segment k when this
			// head's wire fired; the batch removal already took them out
			// of the segment list, so deliver to them by hand.
			for _, e2 := range cand[idx+1:] {
				e2.observe(s, q.ticks)
			}
		}
		q.moved = true
		if pushdown {
			q.stPushdowns.Inc()
		} else {
			q.stPromotions.Inc()
		}
	}
	q.insertBatch(dest, cand)
	moved := len(cand)
	for i := range cand {
		cand[i] = nil
	}
	q.candScratch = cand[:0]
	return moved
}

// occupied returns word wi of the mask of the first n positions.
func occupied(n, wi int) uint64 {
	switch r := n - wi<<6; {
	case r >= 64:
		return ^uint64(0)
	case r <= 0:
		return 0
	default:
		return 1<<uint(r) - 1
	}
}

// removeBatch takes the candidates — in ascending position order, as
// collected — out of segment k and its member lists with a single
// compaction pass over the slice, stashing each candidate's ready/store
// bits in moveReady/moveStore for insertBatch. The candidates are
// off-segment until insertBatch places them.
func (q *SegmentedIQ) removeBatch(k int, cand []*entry) {
	q.moveReady = q.moveReady[:0]
	q.moveStore = q.moveStore[:0]
	seg := q.segs[k]
	rw, sw, ew := q.readyW[k], q.storeW[k], q.eligW[k]
	for _, e := range cand {
		q.moveReady = append(q.moveReady, bitvec.Test(rw, int(e.pos)))
		q.moveStore = append(q.moveStore, bitvec.Test(sw, int(e.pos)))
		q.unlink(e)
		e.seg = -1
	}
	n := len(cand)
	p := int(cand[0].pos)
	if int(cand[n-1].pos) == p+n-1 {
		// The candidates occupy a contiguous run (the usual promotion
		// pattern: the n oldest, all eligible): one bulk copy shifts the
		// tail, one word shift each moves its bits.
		bitvec.RemoveRun(rw, p, n)
		bitvec.RemoveRun(sw, p, n)
		bitvec.RemoveRun(ew, p, n)
		copy(seg[p:], seg[p+n:])
	} else {
		// Drop the bits highest first, so lower positions stay valid.
		for i := n - 1; i >= 0; i-- {
			bitvec.Remove(rw, int(cand[i].pos))
			bitvec.Remove(sw, int(cand[i].pos))
			bitvec.Remove(ew, int(cand[i].pos))
		}
		ci, w := 0, p
		for r := p; r < len(seg); r++ {
			if ci < n && seg[r] == cand[ci] {
				ci++
				continue
			}
			seg[w] = seg[r]
			w++
		}
	}
	last := len(seg) - n
	for j := p; j < last; j++ {
		seg[j].pos = int32(j)
	}
	for j := last; j < len(seg); j++ {
		seg[j] = nil
	}
	q.segs[k] = seg[:last]
}

// insertBatch merges the candidates (seq-sorted, with their bits in
// moveReady/moveStore) into segment dest with a single backward merge
// over the slice and bit words, linking each candidate at its final
// position. In the common promotion pattern the incoming instructions are
// all younger than the destination's residents, so the merge degenerates
// to an append.
func (q *SegmentedIQ) insertBatch(dest int, cand []*entry) {
	seg := q.segs[dest]
	d := len(seg)
	for range cand {
		seg = append(seg, nil)
	}
	q.segs[dest] = seg
	rw, sw, ew := q.readyW[dest], q.storeW[dest], q.eligW[dest]
	thr := threshold(dest - 1)
	i, w := d-1, len(seg)-1
	for j := len(cand) - 1; j >= 0; w-- {
		if i >= 0 && seg[i].seq > cand[j].seq {
			e := seg[i]
			seg[w] = e
			e.pos = int32(w)
			bitvec.Assign(rw, w, bitvec.Test(rw, i))
			bitvec.Assign(sw, w, bitvec.Test(sw, i))
			bitvec.Assign(ew, w, bitvec.Test(ew, i))
			i--
			continue
		}
		e := cand[j]
		seg[w] = e
		e.seg = dest
		e.pos = int32(w)
		bitvec.Assign(rw, w, q.moveReady[j])
		bitvec.Assign(sw, w, q.moveStore[j])
		// link without re-summarizing, and updateElig inline: a call per
		// moved entry is a measurable share of promotion's cost. unlink
		// cleared cross.
		if e.wired != 0 {
			q.linkWires(e)
		}
		if dest > 0 {
			below, at := e.crossing(thr, q.ticks)
			bitvec.Assign(ew, w, below)
			if at != 0 {
				q.setCrossing(e, at)
			}
		}
		j--
	}
}

// removeFromSegment takes e out of segment k and out of readiness
// tracking: the entry is leaving the queue segments for good.
func (q *SegmentedIQ) removeFromSegment(k int, e *entry) {
	q.segRemove(k, e)
	q.sb.Untrack(e.id)
}

// Issue implements iq.Queue: wakeup/select over the bottom segment only,
// oldest ready first — a TrailingZeros64 walk of the seq-ordered ready
// word. Issuing chain heads assert their wire at segment 0 (members with
// head location zero enter self-timed mode). The returned slice is owned
// by the queue and valid until the next call.
func (q *SegmentedIQ) Issue(cycle int64, max int, tryIssue func(*uop.UOp) bool) []*uop.UOp {
	if cycle != q.curCycle {
		// Drivers that skip BeginCycle (unit tests) still get wakes
		// evaluated at the issue cycle.
		q.advance(cycle)
	}
	cand := q.candScratch[:0]
	for wi, w := range q.readyW[0] {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &= w - 1
			e := q.segs[0][wi<<6+b]
			if e.arrived < cycle {
				cand = append(cand, e)
			}
		}
	}
	out := q.outScratch[:0]
	for _, e := range cand {
		if len(out) >= max {
			break
		}
		if !tryIssue(e.u) {
			continue
		}
		e.u.IssueCycle = cycle
		q.removeFromSegment(0, e)
		q.total--
		out = append(out, e.u)
		if e.u.Inst.HasDest() && !e.u.IsLoad() {
			// The pipeline stamps Complete after Issue returns; resolve
			// the completion for waiting consumers at the next advance.
			// A load's completion comes with NotifyLoadComplete.
			q.unresolved = append(q.unresolved, e.u)
		}
		if e.isHead {
			q.assertAt(0, signal{ch: e.head, typ: sigAdvance})
		}
		q.trainLRP(e)
	}
	for i := range cand {
		cand[i] = nil
	}
	q.candScratch = cand[:0]
	q.outScratch = out
	if len(out) > 0 {
		q.moved = true
	}
	q.stIssued.Add(uint64(len(out)))
	return out
}

// trainLRP scores and trains the left/right predictor once both operand
// arrival times are known (they are, at issue).
func (q *SegmentedIQ) trainLRP(e *entry) {
	if !e.lrpTracked || q.lrp == nil {
		return
	}
	u := e.u
	if u.Prod[0] == nil || u.Prod[1] == nil {
		return
	}
	t0, t1 := u.OperandReadyTime(0), u.OperandReadyTime(1)
	if t0 == t1 {
		return // no information in a tie
	}
	q.lrp.Update(u.Inst.PC, t0 > t1)
}

// SetActiveSegments gates the queue to its bottom n segments (§7 dynamic
// resizing by clock/power gating at segment granularity). Dispatch stops
// targeting gated segments immediately; instructions already above the
// active region keep promoting downward until it drains. n is clamped to
// [1, Segments].
func (q *SegmentedIQ) SetActiveSegments(n int) {
	if n < 1 {
		n = 1
	}
	if n > q.cfg.Segments {
		n = q.cfg.Segments
	}
	q.active = n
}

// ActiveSegments returns the number of powered segments.
func (q *SegmentedIQ) ActiveSegments() int { return q.active }

// dispatchTarget picks the segment a new instruction enters: with bypass
// (§4.2), the highest non-empty segment (or the bottom if the queue is
// empty), overflowing into the empty segment above it when full; without
// bypass, always the top (active) segment.
func (q *SegmentedIQ) dispatchTarget() (int, bool) {
	top := q.active - 1
	if !q.cfg.Bypass {
		if len(q.segs[top]) >= q.cfg.SegSize {
			return 0, false
		}
		return top, true
	}
	hi := -1
	for k := top; k >= 0; k-- {
		if len(q.segs[k]) > 0 {
			hi = k
			break
		}
	}
	switch {
	case hi == -1:
		return 0, true
	case len(q.segs[hi]) < q.cfg.SegSize:
		return hi, true
	case hi < top:
		return hi + 1, true
	default:
		return 0, false
	}
}

// refFrom derives a chain membership from a register-table row. A
// self-timed row's countdown — frozen value or running deadline — carries
// over as is.
func refFrom(re regEntry) chainRef {
	if re.selfTimed {
		return chainRef{ch: re.ch, delay: re.latency, due: re.due, selfTimed: true, suspended: re.suspended}
	}
	// §3.3: delay is initialised to 2*S_H + D_H.
	return chainRef{ch: re.ch, delay: 2*re.headLoc + re.latency, headLoc: re.headLoc}
}

// Dispatch implements iq.Queue: chain assignment via the register
// information table, delay-value initialisation, chain-head creation
// (loads, and two-outstanding-operand instructions in the base design),
// and placement with segment bypass. Returns false — with no state
// changed — when the target segment is full or no chain wire is free.
func (q *SegmentedIQ) Dispatch(cycle int64, u *uop.UOp) bool {
	// Collect the outstanding source operands and snapshot their rows
	// (the destination update below may overwrite a row aliased by a
	// source).
	type srcOut struct {
		j  int
		re regEntry
	}
	var outsArr [2]srcOut
	outs := outsArr[:0]
	for j := 0; j < 2; j++ {
		if j == 0 && u.IsStore() {
			// A store's delay value tracks only its address operand: the
			// EA calculation is what the IQ schedules; the data drains
			// through the LSQ.
			continue
		}
		r := u.Src(j)
		if r == isa.RegNone || r == isa.RegZero {
			continue
		}
		re := q.table.row(u.Thread, r)
		if re.outstandingAt(q.ticks) {
			outs = append(outs, srcOut{j: j, re: *re})
		}
	}

	isLoad := u.IsLoad()
	predHit := false
	if isLoad && q.hmp != nil {
		predHit = q.hmp.PredictHit(u.Inst.PC)
	}
	needHead := isLoad && !predHit
	headIsLoad := needHead

	twoDiff := len(outs) == 2 &&
		outs[0].re.ch.real() && outs[1].re.ch.real() && outs[0].re.ch != outs[1].re.ch
	if twoDiff && q.lrp == nil {
		// Base design (§3.4): an instruction following two chains must
		// itself head a new chain.
		needHead = true
	}

	target, ok := q.dispatchTarget()
	if !ok {
		q.stStallFull.Inc()
		return false
	}

	hd := chainNone
	if needHead {
		c, allocOK := q.chains.alloc()
		if !allocOK {
			q.stStallNoChain.Inc()
			return false
		}
		hd = c
		q.demChains.Observe(cycle, int64(q.chains.inUse))
	}

	// Commit point: no stalls past here.
	e := q.newEntry(u, target, cycle)
	e.isHead = needHead
	e.head = hd
	if len(outs) == 2 {
		q.stTwoOutstanding.Inc()
		if twoDiff {
			q.stTwoDiffChains.Inc()
		}
	}

	switch {
	case len(outs) == 0:
		// Both operands available: delay 0, no chain membership.
	case len(outs) == 1:
		e.refs[0] = refFrom(outs[0].re)
		e.nrefs = 1
	case q.lrp != nil:
		// §4.3: with the LRP each instruction follows at most one chain —
		// the operand predicted to arrive later.
		left := q.lrp.PredictLeftLater(u.Inst.PC)
		e.lrpTracked = true
		pick := outs[1]
		if left {
			pick = outs[0]
		}
		e.refs[0] = refFrom(pick.re)
		e.nrefs = 1
	case outs[0].re.ch.real() && outs[0].re.ch == outs[1].re.ch:
		// Both operands on the same chain: one membership, larger delay.
		a, b := refFrom(outs[0].re), refFrom(outs[1].re)
		if b.delayAt(q.ticks) > a.delayAt(q.ticks) {
			a = b
		}
		e.refs[0] = a
		e.nrefs = 1
	default:
		// Two memberships (§3.2); the larger delay value controls.
		e.refs[0] = refFrom(outs[0].re)
		e.refs[1] = refFrom(outs[1].re)
		e.nrefs = 2
	}
	e.summarize() // catchUp, below, reads it

	if u.Inst.HasDest() {
		predLat := u.Latency()
		if isLoad {
			predLat = q.cfg.PredictedLoadLatency
		}
		di := rowIndex(u.Thread, u.Inst.Dest)
		switch {
		case needHead:
			q.setRow(di, regEntry{valid: true, producer: u, ch: hd, latency: predLat, headLoc: target})
		case e.nrefs > 0:
			cr := &e.refs[0]
			if e.nrefs == 2 && e.refs[1].delayAt(q.ticks) > cr.delayAt(q.ticks) {
				cr = &e.refs[1]
			}
			if cr.selfTimed {
				q.setRow(di, regEntry{valid: true, producer: u, ch: cr.ch,
					latency: cr.delayAt(q.ticks) + predLat, selfTimed: true, suspended: cr.suspended})
			} else {
				// Latency relative to head issue: the controlling
				// operand's latency-from-head plus this instruction's
				// own latency.
				q.setRow(di, regEntry{valid: true, producer: u, ch: cr.ch,
					latency: cr.delay - 2*cr.headLoc + predLat, headLoc: cr.headLoc})
			}
		default:
			// Fully predictable: expected to issue after draining ~one
			// segment per cycle from its dispatch segment.
			q.setRow(di, regEntry{valid: true, producer: u, ch: chainNone,
				latency: target + predLat, selfTimed: true})
		}
	}

	u.DispatchCycle = cycle
	u.IQ = e
	q.catchUp(e, target)
	q.segInsert(target, e, q.sb.Track(e.id, u, cycle), u.IsStore())
	q.total++
	q.moved = true
	q.stDispatched.Inc()
	q.stDispatchSeg.Observe(float64(target))
	if needHead {
		q.stHeads.Inc()
		if headIsLoad {
			q.stHeadLoads.Inc()
		} else {
			q.stHeadTwoChain.Inc()
		}
	}
	return true
}

// NotifyLoadMiss implements iq.Queue: the chain head discovered it will
// not complete within its predicted latency; members suspend self-timing
// (§3.4). The signal originates at the bottom of the queue and propagates
// up the chain wire.
func (q *SegmentedIQ) NotifyLoadMiss(cycle int64, u *uop.UOp) {
	e, ok := u.IQ.(*entry)
	if !ok || e == nil || !e.isHead {
		return
	}
	q.assertAt(0, signal{ch: e.head, typ: sigSuspend})
}

// NotifyLoadComplete implements iq.Queue: a final chain-wire signal
// resumes self-timed mode; the hit/miss predictor is trained.
func (q *SegmentedIQ) NotifyLoadComplete(cycle int64, u *uop.UOp) {
	q.wakeConsumers(u)
	if q.hmp != nil && u.IsLoad() {
		q.hmp.Update(u.Inst.PC, u.MemKind == uop.MemHit)
	}
	e, ok := u.IQ.(*entry)
	if !ok || e == nil || !e.isHead {
		return
	}
	q.assertAt(0, signal{ch: e.head, typ: sigResume})
}

// Writeback implements iq.Queue: chains are deallocated when the head
// writes its result back to the register file; the register table row is
// released if this instruction is still its producer.
func (q *SegmentedIQ) Writeback(cycle int64, u *uop.UOp) {
	q.wakeConsumers(u)
	q.clearProducer(u)
	e, ok := u.IQ.(*entry)
	if !ok || e == nil {
		return
	}
	if e.isHead {
		q.chains.release(e.head)
		e.isHead = false
	}
	u.IQ = nil
	// The entry left the queue segments at issue and its last external
	// reference (u.IQ) is gone: recycle it.
	e.u = nil
	q.entryPool = append(q.entryPool, e)
}

// EndCycle implements iq.Queue: deadlock detection (§4.5). A deadlock is
// declared when the queue holds instructions but nothing issued, promoted
// or dispatched this cycle and nothing is executing elsewhere in the
// machine; recovery runs at the start of the next cycle.
func (q *SegmentedIQ) EndCycle(cycle int64, machineActive bool) {
	if q.total > 0 && !q.moved && !machineActive {
		q.stDeadlockCycles.Inc()
		if q.cfg.DeadlockRecovery {
			q.recoverPending = true
		}
	}
}

// recover implements §4.5: every full segment is forced to promote one
// instruction (eligible candidates preferred), and if the bottom segment
// is full of non-ready instructions, one is recycled to the top of the
// queue, guaranteeing the oldest ready instruction can eventually reach
// segment 0.
func (q *SegmentedIQ) recover(cycle int64) {
	q.stRecoveries.Inc()

	var recycled *entry
	var recycledReady, recycledStore bool
	if len(q.segs[0]) >= q.cfg.SegSize && !q.anyReady(0) {
		oldest := q.segs[0][0] // seq-sorted: slot 0 is the oldest
		recycledReady, recycledStore = q.segRemove(0, oldest)
		recycled = oldest
	}

	// Force one promotion across every segment boundary with room below.
	// The paper forces promotions out of *full* segments; we extend the
	// forced pass to any non-empty segment so that recovery also clears
	// wedges where delay values have gone stale without filling the queue
	// (the queue is already known to be making no progress).
	for k := 1; k < q.cfg.Segments; k++ {
		if len(q.segs[k]) == 0 || len(q.segs[k-1]) >= q.cfg.SegSize {
			continue
		}
		// Prefer an eligible instruction; otherwise force the oldest.
		if q.moveSelected(k, k-1, 1, cycle, pickBelow) == 0 {
			q.moveSelected(k, k-1, 1, cycle, pickAny)
		}
	}

	if recycled != nil {
		placed := false
		for k := q.cfg.Segments - 1; k >= 0; k-- {
			if len(q.segs[k]) < q.cfg.SegSize {
				recycled.arrived = cycle
				q.catchUp(recycled, k)
				q.segInsert(k, recycled, recycledReady, recycledStore)
				placed = true
				break
			}
		}
		if !placed {
			// Cannot happen: removing the entry freed a slot that the
			// forced promotions can only have cascaded upward.
			recycled.arrived = cycle // may not issue in its recycling cycle
			q.segInsert(0, recycled, recycledReady, recycledStore)
		}
	}
}

func (q *SegmentedIQ) anyReady(k int) bool {
	return bitvec.Any(q.readyW[k])
}

// SegmentLen returns the occupancy of segment k (tests and occupancy
// reports).
func (q *SegmentedIQ) SegmentLen(k int) int { return len(q.segs[k]) }

// DelayOf returns the current effective delay value of a dispatched
// instruction, or -1 if it is not (or no longer) queued here. Diagnostic
// and walkthrough use.
func (q *SegmentedIQ) DelayOf(u *uop.UOp) int {
	if e, ok := u.IQ.(*entry); ok && e != nil {
		return e.effDelay(q.ticks)
	}
	return -1
}

// SegmentOf returns the segment index holding a dispatched instruction,
// or -1 if it is not queued here.
func (q *SegmentedIQ) SegmentOf(u *uop.UOp) int {
	e, ok := u.IQ.(*entry)
	if !ok || e == nil || e.seg < 0 || q.segs[e.seg][e.pos] != e {
		return -1
	}
	return e.seg
}

// ChainsInUse returns the number of currently allocated chains.
func (q *SegmentedIQ) ChainsInUse() int { return q.chains.inUse }

// Demands implements iq.Queue: the chain-wire high-watermark, which is
// the dimension a MaxChains sweep tightens.
func (q *SegmentedIQ) Demands() []iq.DemandCurve {
	return []iq.DemandCurve{{Dim: "chains", Steps: q.demChains.Steps}}
}

// CloneBounded implements iq.Queue: the segmented design's sweep bound is
// MaxChains. Wire ids are drawn lowest-first and recycled LIFO, so the
// allocation sequence is bound-independent until the watermark crosses;
// cloneBounded rebuilds the free list a cold run under the tighter bound
// would hold and verifies the watermark never crossed it.
func (q *SegmentedIQ) CloneBounded(m *uop.CloneMap, bound int) (iq.Queue, bool) {
	if bound == q.cfg.MaxChains {
		return q.Clone(m), true
	}
	if bound <= 0 {
		// Unlimited (0) is a loosening, never a sweep sibling of a
		// bounded reference.
		return nil, false
	}
	chains, ok := q.chains.cloneBounded(bound)
	if !ok {
		return nil, false
	}
	n := q.Clone(m).(*SegmentedIQ)
	n.chains = chains
	n.cfg.MaxChains = bound
	return n, true
}

// CollectStats implements iq.Queue.
func (q *SegmentedIQ) CollectStats(s *stats.Set) {
	s.Put("iq_dispatched", float64(q.stDispatched.Value()))
	s.Put("iq_issued", float64(q.stIssued.Value()))
	s.Put("iq_stall_full", float64(q.stStallFull.Value()))
	s.Put("iq_stall_nochain", float64(q.stStallNoChain.Value()))
	s.Put("iq_promotions", float64(q.stPromotions.Value()))
	s.Put("iq_pushdowns", float64(q.stPushdowns.Value()))
	s.Put("iq_occupancy_avg", q.stOccupancy.Value())
	s.Put("segments_active_avg", q.stActiveSegs.Value())
	for k := range q.stSegOcc {
		s.Put(fmt.Sprintf("seg%d_occupancy_avg", k), q.stSegOcc[k].Value())
	}
	s.Put("iq_ready_seg0_avg", q.stReadySeg0.Value())
	s.Put("iq_ready_total_avg", q.stReadyTotal.Value())
	s.Put("iq_dispatch_seg_avg", q.stDispatchSeg.Value())
	s.Put("chains_created", float64(q.chains.created.Value()))
	s.Put("chains_avg", q.chains.usage.Value())
	s.Put("chains_peak", float64(q.chains.peak.Value()))
	s.Put("chain_heads", float64(q.stHeads.Value()))
	s.Put("chain_heads_load", float64(q.stHeadLoads.Value()))
	s.Put("chain_heads_twochain", float64(q.stHeadTwoChain.Value()))
	s.Put("two_outstanding", float64(q.stTwoOutstanding.Value()))
	s.Put("two_outstanding_diff_chains", float64(q.stTwoDiffChains.Value()))
	s.Put("deadlock_cycles", float64(q.stDeadlockCycles.Value()))
	s.Put("deadlock_recoveries", float64(q.stRecoveries.Value()))
	s.Put("chain_wire_assertions", float64(q.stWireAsserts.Value()))
	if q.hmp != nil {
		s.Put("hmp_hit_pred_accuracy", q.hmp.HitPredictionAccuracy())
		s.Put("hmp_hit_coverage", q.hmp.HitCoverage())
		s.Put("hmp_actual_hit_rate", q.hmp.ActualHitRate())
	}
	if q.lrp != nil {
		s.Put("lrp_accuracy", q.lrp.Accuracy())
	}
}

var _ iq.Queue = (*SegmentedIQ)(nil)
