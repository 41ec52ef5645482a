// Package iq defines the instruction-queue abstraction shared by every
// scheduler design in the repository, and implements the conventional
// monolithic queue — the paper's "ideal, single-cycle" baseline, whose
// wakeup and select logic searches every entry each cycle regardless of
// size. The modelled hardware rescans everything; the software model
// reproduces the same cycle-level behaviour with event-driven readiness
// bitmaps (see DESIGN.md and the Scoreboard type).
package iq

import (
	"math/bits"

	"repro/internal/bitvec"
	"repro/internal/stats"
	"repro/internal/uop"
)

// Queue is an instruction scheduler: the structure between dispatch and
// the function units. The simulator drives one Queue per core through the
// following per-cycle protocol, in order:
//
//	BeginCycle → Issue → (LSQ / memory notifications) → Dispatch* → EndCycle
//
// Implementations must tolerate any number of Dispatch calls per cycle
// (the simulator enforces dispatch width) and must not issue an
// instruction in the cycle it was dispatched or promoted into the issue
// stage.
type Queue interface {
	// Name identifies the design for reports.
	Name() string
	// Capacity is the total number of instruction slots.
	Capacity() int
	// Len is the number of occupied slots.
	Len() int
	// ExtraDispatchStages is the number of additional dispatch pipeline
	// cycles this design costs over a conventional IQ (the paper charges
	// the segmented and prescheduling designs one extra cycle).
	ExtraDispatchStages() int

	// BeginCycle performs the design's internal per-cycle work that
	// precedes issue: delay-value maintenance, promotion between
	// segments, array shifting, and so on.
	BeginCycle(cycle int64)

	// Issue selects up to max ready instructions, oldest first, removes
	// them from the queue and returns them. tryIssue is consulted for
	// each candidate; it returns false if no function unit can accept the
	// instruction this cycle, and reserves the unit when it returns true,
	// so the Queue must then issue that instruction. The returned slice
	// may be backed by storage owned by the queue: it is valid only until
	// the next Issue call, and callers must not retain it.
	Issue(cycle int64, max int, tryIssue func(*uop.UOp) bool) []*uop.UOp

	// Dispatch inserts a renamed instruction. It returns false — with no
	// state modified — if the design must stall dispatch (no slot, or no
	// free chain wire). The simulator retries the same instruction next
	// cycle; dispatch is in order.
	Dispatch(cycle int64, u *uop.UOp) bool

	// NotifyLoadMiss tells the scheduler that an issued load has been
	// discovered not to hit the L1 (chain suspension in the segmented
	// design).
	NotifyLoadMiss(cycle int64, u *uop.UOp)
	// NotifyLoadComplete tells the scheduler that a load's data has
	// returned (chain resumption, consumer wakeup). It is how a load's
	// completion reaches the queue: the caller stamps u.Complete and
	// makes this call in the same event, so queues need not poll issued
	// loads for their completion.
	NotifyLoadComplete(cycle int64, u *uop.UOp)
	// Writeback tells the scheduler that u's result has been written to
	// the register file (chain deallocation point). Implementations rely
	// on this call — delivered no later than the first cycle the result
	// is architecturally visible — to wake parked consumers.
	Writeback(cycle int64, u *uop.UOp)

	// EndCycle closes the cycle. machineActive reports whether anything
	// outside the queue made progress (instructions executing, memory
	// traffic, commits); the segmented design uses its absence for
	// deadlock detection.
	EndCycle(cycle int64, machineActive bool)

	// CollectStats adds design-specific statistics to s.
	CollectStats(s *stats.Set)

	// Clone returns a deep copy of the queue sharing no mutable state
	// with the receiver. Held instructions are remapped through m, so a
	// cloned machine's layers agree on the cloned uop identities; any
	// queue-private per-instruction state (uop.UOp.IQ) is re-attached to
	// the clones by the implementation.
	Clone(m *uop.CloneMap) Queue

	// Demands returns the monotone high-watermark curves of the design's
	// bounded resources, recorded since construction (see demand.go). The
	// returned slices are owned by the queue; callers must not retain
	// them across further stepping.
	Demands() []DemandCurve

	// CloneBounded clones the queue with its design-specific sweep bound
	// (queue capacity for the conventional design, chain-wire count for
	// the segmented design) tightened to bound, refitting internal
	// structures so the clone is exactly the machine a cold run under
	// that bound would have built — valid only while the watermark has
	// never exceeded bound, which implementations must verify. ok=false
	// means the refit cannot be proven safe (watermark already crossed,
	// or the design does not support refitting) and the caller must fall
	// back to a cold fork.
	CloneBounded(m *uop.CloneMap, bound int) (Queue, bool)
}

// Conventional is a monolithic instruction queue with full-queue wakeup
// and select each cycle. With unconstrained size it is the paper's "ideal"
// IQ; at 32 entries it is the conventional baseline the segmented design
// is compared against.
//
// Instructions live in a packed array kept sorted by sequence number, so
// position doubles as age order; a position-indexed ready bitmap is
// maintained event-driven by a Scoreboard. Wakeup then costs nothing for
// entries whose operands did not change, and select takes set bits in
// position order — the first set bit is the oldest ready instruction, no
// sorting needed. The selection each cycle is identical to the full
// rescan the modelled hardware performs.
type Conventional struct {
	name     string
	capacity int
	now      int64 // last BeginCycle; clocks wakeup deliveries

	// slots is packed and seq-sorted; ids maps a position to the
	// instruction's stable scoreboard handle, posOf is the inverse (valid
	// while resident), and freeH recycles handles of departed entries.
	slots []*uop.UOp
	ids   []int32
	posOf []int32
	freeH []int32

	readyW []uint64 // position-indexed: issue-ready
	storeW []uint64 // position-indexed: stores (Ready-stat correction)
	sb     Scoreboard

	// unresolved holds issued non-load producers whose completion time
	// was still unknown when they left the queue: the execution core
	// stamps u.Complete right after Issue returns, so the next BeginCycle
	// wakes their consumers with the exact completion cycle. (The
	// Writeback call delivers the same information; whichever arrives
	// first wins.) A load's completion arrives with NotifyLoadComplete.
	unresolved []*uop.UOp

	outScratch []*uop.UOp // backs Issue's result; reused every cycle
	rmScratch  []int32    // removed positions, ascending; reused every cycle

	issued     stats.Counter
	dispatched stats.Counter
	fullStalls stats.Counter
	occupancy  stats.Mean
	readyInIQ  stats.Mean

	dem Watermark // occupancy high-watermark, for prefix sharing
}

// NewConventional builds a conventional/ideal IQ with the given capacity.
func NewConventional(capacity int) *Conventional {
	return &Conventional{name: "ideal", capacity: capacity}
}

// Name implements Queue.
func (q *Conventional) Name() string { return q.name }

// Capacity implements Queue.
func (q *Conventional) Capacity() int { return q.capacity }

// Len implements Queue.
func (q *Conventional) Len() int { return len(q.slots) }

// ExtraDispatchStages implements Queue: a conventional IQ costs nothing
// extra.
func (q *Conventional) ExtraDispatchStages() int { return 0 }

// wake delivers p's now-known completion time to parked consumers.
func (q *Conventional) wake(cycle int64, p *uop.UOp) {
	for _, h := range q.sb.Wake(p, cycle) {
		bitvec.Set(q.readyW, int(q.posOf[h]))
	}
}

// resolve re-checks issued producers whose completion time was unknown.
func (q *Conventional) resolve(cycle int64) {
	kept := q.unresolved[:0]
	for _, u := range q.unresolved {
		if u.Complete == uop.NotYet {
			kept = append(kept, u)
			continue
		}
		q.wake(cycle, u)
	}
	for i := len(kept); i < len(q.unresolved); i++ {
		q.unresolved[i] = nil
	}
	q.unresolved = kept
}

// BeginCycle implements Queue: deliver scheduled wakeups, then sample the
// occupancy/readiness statistics the modelled hardware would observe.
func (q *Conventional) BeginCycle(cycle int64) {
	q.now = cycle
	if len(q.unresolved) > 0 {
		q.resolve(cycle)
	}
	for _, h := range q.sb.Due(cycle) {
		bitvec.Set(q.readyW, int(q.posOf[h]))
	}
	q.occupancy.Observe(float64(len(q.slots)))
	ready := bitvec.Count(q.readyW)
	// The ready bitmap tracks issue readiness, under which a store waits
	// only for its address; the conventional-wakeup statistic counts full
	// operand readiness, so discount ready stores with pending data.
	for k := range q.readyW {
		w := q.readyW[k] & q.storeW[k]
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &= w - 1
			if !q.slots[k<<6+b].OperandReady(0, cycle) {
				ready--
			}
		}
	}
	q.readyInIQ.Observe(float64(ready))
}

// Issue implements Queue: single-cycle wakeup and select over the whole
// structure, oldest ready instructions first. The returned slice is owned
// by the queue and valid until the next call.
func (q *Conventional) Issue(cycle int64, max int, tryIssue func(*uop.UOp) bool) []*uop.UOp {
	if cycle != q.now {
		// Unit-test drivers may skip BeginCycle; deliver wakeups here.
		q.now = cycle
		if len(q.unresolved) > 0 {
			q.resolve(cycle)
		}
		for _, h := range q.sb.Due(cycle) {
			bitvec.Set(q.readyW, int(q.posOf[h]))
		}
	}
	out := q.outScratch[:0]
	removed := q.rmScratch[:0]
	// Positions are age order, so taking set bits low-to-high visits the
	// ready instructions oldest first.
scan:
	for k, w := range q.readyW {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &= w - 1
			pos := k<<6 + b
			u := q.slots[pos]
			if u.DispatchCycle < cycle && tryIssue(u) {
				u.IssueCycle = cycle
				out = append(out, u)
				removed = append(removed, int32(pos))
				if u.Inst.HasDest() && !u.IsLoad() {
					q.unresolved = append(q.unresolved, u)
				}
				if len(out) >= max {
					break scan
				}
			}
		}
	}
	if len(removed) > 0 {
		q.removeBatch(removed)
	}
	q.outScratch = out
	q.rmScratch = removed
	q.issued.Add(uint64(len(out)))
	return out
}

// removeBatch frees the instructions at the given ascending positions,
// recompacting the seq-sorted array and both bitmaps.
func (q *Conventional) removeBatch(removed []int32) {
	n, m := len(q.slots), len(removed)
	for _, p := range removed {
		h := q.ids[p]
		q.sb.Untrack(h)
		q.freeH = append(q.freeH, h)
	}
	if int(removed[m-1]) == m-1 {
		// The removed set is the contiguous front of the queue — the
		// common case, since the oldest ready instructions issue together.
		copy(q.slots, q.slots[m:])
		copy(q.ids, q.ids[m:])
		for p := 0; p < n-m; p++ {
			q.posOf[q.ids[p]] = int32(p)
		}
		for i := 0; i < m; i++ {
			bitvec.Remove(q.readyW, 0)
			bitvec.Remove(q.storeW, 0)
		}
		for i := n - m; i < n; i++ {
			q.slots[i] = nil
		}
		q.slots = q.slots[:n-m]
		q.ids = q.ids[:n-m]
		return
	}
	w, ri := int(removed[0]), 0
	for r := w; r < n; r++ {
		if ri < m && removed[ri] == int32(r) {
			ri++
			continue
		}
		h := q.ids[r]
		q.slots[w] = q.slots[r]
		q.ids[w] = h
		q.posOf[h] = int32(w)
		bitvec.Assign(q.readyW, w, bitvec.Test(q.readyW, r))
		bitvec.Assign(q.storeW, w, bitvec.Test(q.storeW, r))
		w++
	}
	for i := w; i < n; i++ {
		q.slots[i] = nil
		bitvec.Clear(q.readyW, i)
		bitvec.Clear(q.storeW, i)
	}
	q.slots = q.slots[:w]
	q.ids = q.ids[:w]
}

// Dispatch implements Queue.
func (q *Conventional) Dispatch(cycle int64, u *uop.UOp) bool {
	if len(q.slots) >= q.capacity {
		q.fullStalls.Inc()
		return false
	}
	var h int32
	if n := len(q.freeH); n > 0 {
		h = q.freeH[n-1]
		q.freeH = q.freeH[:n-1]
	} else {
		h = int32(len(q.posOf))
		q.posOf = append(q.posOf, 0)
		q.sb.Grow(len(q.posOf))
	}
	// Dispatch is in program order, so the insert position is almost
	// always the tail; the binary search covers replay-style drivers that
	// re-dispatch older sequence numbers.
	pos := len(q.slots)
	if pos > 0 && q.slots[pos-1].Seq > u.Seq {
		lo, hi := 0, pos
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if q.slots[mid].Seq < u.Seq {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		pos = lo
	}
	u.DispatchCycle = cycle
	q.slots = append(q.slots, nil)
	copy(q.slots[pos+1:], q.slots[pos:])
	q.slots[pos] = u
	q.ids = append(q.ids, 0)
	copy(q.ids[pos+1:], q.ids[pos:])
	q.ids[pos] = h
	for p := pos; p < len(q.ids); p++ {
		q.posOf[q.ids[p]] = int32(p)
	}
	for len(q.readyW) < bitvec.Words(len(q.slots)) {
		q.readyW = append(q.readyW, 0)
		q.storeW = append(q.storeW, 0)
	}
	bitvec.Insert(q.storeW, pos, u.IsStore())
	bitvec.Insert(q.readyW, pos, q.sb.Track(h, u, cycle))
	q.dispatched.Inc()
	q.dem.Observe(cycle, int64(len(q.slots)))
	return true
}

// NotifyLoadMiss implements Queue (no-op: readiness is delivered when the
// data returns).
func (q *Conventional) NotifyLoadMiss(cycle int64, u *uop.UOp) {}

// NotifyLoadComplete implements Queue: the load's completion cycle is now
// known, so wake its parked consumers. The wake is clocked by the queue's
// own cycle, not the caller's stamp: some drivers announce a writeback
// scheduled for a future cycle, and readiness must not arrive early.
func (q *Conventional) NotifyLoadComplete(cycle int64, u *uop.UOp) {
	q.wake(q.now, u)
}

// Writeback implements Queue: wake consumers parked on u (see
// NotifyLoadComplete for the clocking).
func (q *Conventional) Writeback(cycle int64, u *uop.UOp) {
	q.wake(q.now, u)
}

// EndCycle implements Queue (no-op: a conventional IQ cannot deadlock).
func (q *Conventional) EndCycle(cycle int64, machineActive bool) {}

// Clone implements Queue.
func (q *Conventional) Clone(m *uop.CloneMap) Queue {
	n := new(Conventional)
	*n = *q
	n.outScratch = nil
	n.rmScratch = nil
	n.slots = make([]*uop.UOp, len(q.slots))
	for i, u := range q.slots {
		n.slots[i] = m.Get(u)
	}
	n.ids = append([]int32(nil), q.ids...)
	n.posOf = append([]int32(nil), q.posOf...)
	n.freeH = append([]int32(nil), q.freeH...)
	n.readyW = append([]uint64(nil), q.readyW...)
	n.storeW = append([]uint64(nil), q.storeW...)
	n.sb = q.sb.Clone(m)
	n.unresolved = make([]*uop.UOp, len(q.unresolved))
	for i, u := range q.unresolved {
		n.unresolved[i] = m.Get(u)
	}
	n.dem.Steps = q.dem.CloneSteps()
	return n
}

// Demands implements Queue: the occupancy high-watermark, which is the
// dimension a queue-size sweep tightens.
func (q *Conventional) Demands() []DemandCurve {
	return []DemandCurve{{Dim: "iq", Steps: q.dem.Steps}}
}

// CloneBounded implements Queue: the conventional design's sweep bound is
// its capacity. Handles and the scoreboard grow only with peak occupancy,
// never with capacity, so as long as the watermark has not crossed the
// tighter bound the clone is bit-for-bit the machine a cold run at that
// capacity would have built.
func (q *Conventional) CloneBounded(m *uop.CloneMap, bound int) (Queue, bool) {
	if bound <= 0 || q.dem.Curve().Peak() > int64(bound) {
		return nil, false
	}
	n := q.Clone(m).(*Conventional)
	n.capacity = bound
	return n, true
}

// CollectStats implements Queue.
func (q *Conventional) CollectStats(s *stats.Set) {
	s.Put("iq_dispatched", float64(q.dispatched.Value()))
	s.Put("iq_issued", float64(q.issued.Value()))
	s.Put("iq_full_stalls", float64(q.fullStalls.Value()))
	s.Put("iq_occupancy_avg", q.occupancy.Value())
	s.Put("iq_ready_avg", q.readyInIQ.Value())
}

var _ Queue = (*Conventional)(nil)
