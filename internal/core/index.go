package core

import "repro/internal/uop"

// The per-wire indexes make a chain-wire signal cost the size of its
// wire's membership rather than the queue's occupancy. members[w] lists
// the chain memberships of resident entries on wire w; rows[w] lists the
// valid register-table rows naming wire w. Both hold every generation of
// the wire (observe filters on the full chain), and both are kept with
// swap-remove slots recorded in the referenced chainRef or regEntry.

// member is one chain membership of a resident entry: e.refs[ref].
type member struct {
	e   *entry
	ref int32
}

// link enters e's memberships on real wires into the member lists. Every
// entry joins at dispatch; it leaves at issue (unlink).
func (q *SegmentedIQ) link(e *entry) {
	for i := 0; i < e.nrefs; i++ {
		cr := &e.refs[i]
		if !cr.ch.real() {
			continue
		}
		w := cr.ch.id
		for len(q.members) <= w {
			q.members = append(q.members, nil)
		}
		cr.slot = int32(len(q.members[w]))
		q.members[w] = append(q.members[w], member{e: e, ref: int32(i)})
	}
}

// unlink removes e's memberships from the member lists.
func (q *SegmentedIQ) unlink(e *entry) {
	for i := 0; i < e.nrefs; i++ {
		cr := &e.refs[i]
		if !cr.ch.real() {
			continue
		}
		l := q.members[cr.ch.id]
		last := l[len(l)-1]
		l[cr.slot] = last
		last.e.refs[last.ref].slot = cr.slot
		l[len(l)-1] = member{}
		q.members[cr.ch.id] = l[:len(l)-1]
	}
}

// deliver applies a signal to the members of its wire resident in
// segments lo..hi. Off-segment entries (seg -1) never match.
func (q *SegmentedIQ) deliver(s signal, lo, hi int) {
	if s.ch.id >= len(q.members) {
		return
	}
	for _, m := range q.members[s.ch.id] {
		if k := m.e.seg; k >= lo && k <= hi {
			m.e.refs[m.ref].observe(s, q.ticks)
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
