package core

import (
	"repro/internal/iq"
	"repro/internal/stats"
	"repro/internal/uop"
)

// clone returns an independent copy of the chain pool, preserving the
// free list order and per-wire generations so a cloned machine allocates
// the same wires in the same order as the original.
func (p *chainPool) clone() *chainPool {
	n := new(chainPool)
	*n = *p
	n.free = append([]int(nil), p.free...)
	n.gens = append([]uint32(nil), p.gens...)
	return n
}

// clone returns an independent copy of the wire pipeline, including any
// signals currently in flight between segments.
func (w *wirePipe) clone() *wirePipe {
	n := &wirePipe{nSegs: w.nSegs, cur: make([][]signal, len(w.cur))}
	for i, s := range w.cur {
		if s == nil {
			continue
		}
		ns := make([]signal, len(s))
		copy(ns, s)
		n.cur[i] = ns
	}
	return n
}

// clone returns an independent copy of the register information table with
// producer pointers remapped through m.
func (t regTable) clone(m *uop.CloneMap) regTable {
	n := make(regTable, len(t))
	copy(n, t)
	for i := range n {
		n[i].producer = m.Get(n[i].producer)
	}
	return n
}

// CloneIQ implements uop.IQState: the entry rides along whenever its
// instruction is remapped through a clone map. This covers issued-but-
// not-written-back instructions too — their entries have already left
// the segments but still carry the chain memberships that writeback
// releases.
func (e *entry) CloneIQ(clone *uop.UOp) any {
	ne := new(entry)
	*ne = *e
	ne.u = clone
	return ne
}

// Clone implements iq.Queue: a deep copy of the segments, chain-wire
// indexes, promotable bits, crossing heap, chain pool, wire pipeline,
// register table and predictors, with every held instruction remapped
// through m. Each resident entry's clone is the one CloneIQ attached to
// the remapped instruction, so segments, member lists and uops agree on
// entry identity. Scratch buffers and the entry freelist are not carried
// over.
func (q *SegmentedIQ) Clone(m *uop.CloneMap) iq.Queue {
	n := new(SegmentedIQ)
	*n = *q
	n.candScratch = nil
	n.outScratch = nil
	n.moveReady = nil
	n.moveStore = nil
	n.entryPool = nil
	n.segs = make([][]*entry, len(q.segs))
	// byID is rebuilt from the cloned segments: issued entries were
	// untracked at issue, so the scoreboard never dereferences their
	// (nil) slots.
	n.byID = make([]*entry, len(q.byID))
	for k, seg := range q.segs {
		if seg == nil {
			continue
		}
		ns := make([]*entry, len(seg))
		for i, e := range seg {
			ne := m.Get(e.u).IQ.(*entry)
			ns[i] = ne
			n.byID[ne.id] = ne
		}
		n.segs[k] = ns
	}
	n.readyW = make([][]uint64, len(q.readyW))
	n.storeW = make([][]uint64, len(q.storeW))
	n.eligW = make([][]uint64, len(q.eligW))
	for k := range q.readyW {
		n.readyW[k] = append([]uint64(nil), q.readyW[k]...)
		n.storeW[k] = append([]uint64(nil), q.storeW[k]...)
		n.eligW[k] = append([]uint64(nil), q.eligW[k]...)
	}
	n.crossings = append(iq.Deadlines[int32](nil), q.crossings...)
	n.sb = q.sb.Clone(m)
	n.unresolved = make([]*uop.UOp, len(q.unresolved))
	for i, u := range q.unresolved {
		n.unresolved[i] = m.Get(u)
	}
	// The member lists keep their order (delivery order is not observable,
	// but clones stay field-for-field equal to their originals); every
	// listed entry is resident, so its clone is the one CloneIQ attached.
	n.members = make([][]member, len(q.members))
	for li, l := range q.members {
		if len(l) == 0 {
			continue
		}
		nl := make([]member, len(l))
		for i, mb := range l {
			nl[i] = member{e: m.Get(mb.e.u).IQ.(*entry), ref: mb.ref}
		}
		n.members[li] = nl
	}
	n.rows = make([][]int32, len(q.rows))
	for w, l := range q.rows {
		n.rows[w] = append([]int32(nil), l...)
	}
	n.chains = q.chains.clone()
	n.wires = q.wires.clone()
	n.table = q.table.clone(m)
	n.hmp = q.hmp.Clone()
	n.lrp = q.lrp.Clone()
	n.prevFree = append([]int(nil), q.prevFree...)
	n.stSegOcc = append([]stats.Mean(nil), q.stSegOcc...)
	n.demChains.Steps = q.demChains.CloneSteps()
	return n
}
