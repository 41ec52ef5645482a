package core

import (
	"math/bits"

	"repro/internal/bitvec"
	"repro/internal/uop"
)

// The chain-wire indexes make a wire signal cost the memberships it can
// reach rather than the queue's occupancy. members lists the chain
// memberships of resident entries by (wire, segment), at
// members[w*Segments+k], so the pipelined delivery at segment k visits only
// that segment's members, and bit w*Segments+k of memberOcc says whether
// that list is non-empty; rows[w] lists the valid register-table rows
// naming wire w. Both hold every generation of the wire (observe filters
// on the full chain), and both are kept with swap-remove slots recorded in
// the referenced chainRef or regEntry.

// member is one chain membership of a resident entry: the ref-th
// reference of the entry at arena handle h.
type member struct {
	h   int32
	ref int32
}

// link summarizes e's memberships, just set or changed, enters e — just
// placed in segment e.seg — into that segment's member lists, and derives
// its promotable bit. segInsert links every entry it places; white-box
// tests that plant an entry's memberships after placing it call link
// themselves. insertBatch does the same for moved entries, whose summary
// is current, inline.
func (q *SegmentedIQ) link(e *entry) {
	e.summarize()
	if e.wired != 0 {
		q.linkWires(e)
	}
	q.updateElig(e)
}

// unlink takes e out of its segment's member lists and drops its pending
// crossing; it is called before e leaves segment e.seg.
func (q *SegmentedIQ) unlink(e *entry) {
	if e.wired != 0 {
		q.unlinkWires(e)
	}
	e.cross = 0
}

// linkWires enters e's memberships on real wires into the member lists of
// its segment, growing members (and memberOcc) to cover each wire.
func (q *SegmentedIQ) linkWires(e *entry) {
	for w := e.wired; w != 0; w &= w - 1 {
		i := bits.TrailingZeros8(w)
		cr := &e.refs[i]
		base := cr.ch.id * q.cfg.Segments
		for len(q.members) <= base {
			q.members = append(q.members, make([][]member, q.cfg.Segments)...)
		}
		for len(q.memberOcc) < bitvec.Words(len(q.members)) {
			q.memberOcc = append(q.memberOcc, 0)
		}
		li := base + e.seg
		cr.slot = int32(len(q.members[li]))
		q.members[li] = append(q.members[li], member{h: e.id, ref: int32(i)})
		bitvec.Set(q.memberOcc, li)
	}
}

// unlinkWires removes e's memberships from its segment's member lists.
func (q *SegmentedIQ) unlinkWires(e *entry) {
	for w := e.wired; w != 0; w &= w - 1 {
		cr := &e.refs[bits.TrailingZeros8(w)]
		li := cr.ch.id*q.cfg.Segments + e.seg
		l := q.members[li]
		last := l[len(l)-1]
		l[cr.slot] = last
		q.arena[last.h].refs[last.ref].slot = cr.slot
		q.members[li] = l[:len(l)-1]
		if len(l) == 1 {
			bitvec.Clear(q.memberOcc, li)
		}
	}
}

// deliver applies a signal to the members of its wire resident in
// segments lo..hi, re-deriving each one's promotable bit.
func (q *SegmentedIQ) deliver(s signal, lo, hi int) {
	for k := lo; k <= hi; k++ {
		if li, ok := q.memberList(s, k); ok {
			q.deliverList(s, li)
		}
	}
}

// memberList returns the index of the member list of s's wire in segment
// k, and whether that list is non-empty. Most signals find no member of
// their wire in a segment; the occupancy bit answers that without loading
// the list.
func (q *SegmentedIQ) memberList(s signal, k int) (int, bool) {
	li := s.ch.id*q.cfg.Segments + k
	return li, li < len(q.members) && bitvec.Test(q.memberOcc, li)
}

// deliverList applies a signal to the members of list li.
func (q *SegmentedIQ) deliverList(s signal, li int) {
	for _, m := range q.members[li] {
		e := &q.arena[m.h]
		e.refs[m.ref].observe(s, q.ticks)
		e.summarize()
		q.updateElig(e)
	}
}

// Promotable bits and the crossing heap. eligW[k] bit i, for k >= 1, is
// "the i-th oldest entry of segment k has effective delay below
// threshold(k-1) at the current tick": promotion's delay test, kept per
// entry so that selection is a bit scan. A bit changes only when its
// entry's delay state or segment changes (updateElig, at every signal
// delivery and segment entry) or when a running countdown crosses the
// threshold. That crossing tick is known when the countdown starts, so it
// waits in a min-heap, and dueCrossings sets the bits that fall due after
// each tick of the clock. A heap item is live while its entry's cross
// field still names its tick; any change that moves or cancels the
// crossing rewrites cross, leaving the old item to be discarded when it
// surfaces. Segment 0 promotes nowhere and keeps no bits.

// updateElig re-derives e's promotable bit at its current position and
// schedules its crossing, if it has one not yet scheduled.
func (q *SegmentedIQ) updateElig(e *entry) {
	if k := e.seg; k > 0 {
		below, at := e.crossing(threshold(k-1), q.ticks)
		bitvec.Assign(q.eligW[k], q.slot(k, e.id), below)
		if at != e.cross {
			q.setCrossing(e, at)
		}
	}
}

// setCrossing records e's crossing tick and schedules it; 0 records none.
func (q *SegmentedIQ) setCrossing(e *entry, at int64) {
	e.cross = at
	if at != 0 {
		q.crossings.Push(at, e.id)
	}
}

// dueCrossings sets the promotable bits of the crossings due at the
// current tick. BeginCycle calls it after every tick.
func (q *SegmentedIQ) dueCrossings() {
	for {
		it, ok := q.crossings.PopDue(q.ticks)
		if !ok {
			return
		}
		// Entries leaving a segment drop their crossing (unlink), so a
		// live item names a resident entry.
		if e := &q.arena[it.V]; e.cross == it.At {
			e.cross = 0
			bitvec.Set(q.eligW[e.seg], q.slot(e.seg, it.V))
		}
	}
}

// setRow overwrites table row i with re, whose self-timed latency is
// given frozen: a running one is armed against the current tick.
func (q *SegmentedIQ) setRow(i int, re regEntry) {
	if old := &q.table[i]; old.valid && old.ch.real() {
		q.unlinkRow(i)
	}
	if re.running() {
		re.start(q.ticks)
	}
	q.table[i] = re
	if re.valid && re.ch.real() {
		w := re.ch.id
		for len(q.rows) <= w {
			q.rows = append(q.rows, nil)
		}
		q.table[i].slot = int32(len(q.rows[w]))
		q.rows[w] = append(q.rows[w], int32(i))
	}
}

// unlinkRow removes valid row i from its wire's row list.
func (q *SegmentedIQ) unlinkRow(i int) {
	re := &q.table[i]
	l := q.rows[re.ch.id]
	last := l[len(l)-1]
	l[re.slot] = last
	q.table[last].slot = re.slot
	q.rows[re.ch.id] = l[:len(l)-1]
}

// observeRows applies a signal to the table rows naming its wire.
func (q *SegmentedIQ) observeRows(s signal) {
	if s.ch.id >= len(q.rows) {
		return
	}
	for _, i := range q.rows[s.ch.id] {
		q.table[i].observe(s, q.ticks)
	}
}

// clearProducer invalidates the row for u's destination if u is still its
// recorded producer (a younger writer may have replaced it).
func (q *SegmentedIQ) clearProducer(u *uop.UOp) {
	if !u.Inst.HasDest() {
		return
	}
	i := rowIndex(u.Thread, u.Inst.Dest)
	re := &q.table[i]
	if re.valid && re.producer == u {
		if re.ch.real() {
			q.unlinkRow(i)
		}
		re.valid = false
		re.producer = nil
	}
}
