package core

import (
	"repro/internal/iq"
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

// Clone implements iq.Queue: a deep copy of the entry arena, segments,
// chain-wire indexes, promotable bits, crossing heap, chain pool, wire
// pipeline, register table and predictors. The arena is copied slot for
// slot, so every handle — in the segments, member lists, crossing heap
// and scoreboard — names the same entry in the clone; each live entry's
// instruction is remapped through m and given its handle as its IQ value.
// That covers issued-but-not-written-back entries too, which carry the
// chain memberships writeback releases. Scratch buffers are not carried
// over.
func (q *SegmentedIQ) Clone(m *uop.CloneMap) iq.Queue {
	n := new(SegmentedIQ)
	*n = *q
	n.candScratch = nil
	n.outScratch = nil
	n.moveBits = nil
	n.arena = append(make([]entry, 0, cap(q.arena)), q.arena...)
	for i := range n.arena {
		if u := n.arena[i].u; u != nil {
			c := m.Get(u)
			c.IQ = q.boxed[i]
			n.arena[i].u = c
		}
	}
	n.free = append([]int32(nil), q.free...)
	// The boxed handles are immutable: share them, clipped so that growth
	// on either side reallocates.
	n.boxed = q.boxed[:len(q.boxed):len(q.boxed)]
	n.pos = append([]int32(nil), q.pos...)
	n.posOff = append([]int32(nil), q.posOff...)
	n.segBuf = make([][]int32, len(q.segBuf))
	n.keyBuf = make([][]int64, len(q.keyBuf))
	n.segs = make([][]int32, len(q.segs))
	n.keys = make([][]int64, len(q.keys))
	for k := range q.segs {
		n.segBuf[k] = append([]int32(nil), q.segBuf[k]...)
		n.keyBuf[k] = append([]int64(nil), q.keyBuf[k]...)
		off, l := int(q.posOff[k]), len(q.segs[k])
		n.segs[k], n.keys[k] = n.segBuf[k][off:off+l], n.keyBuf[k][off:off+l]
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
	n.memberOcc = append([]uint64(nil), q.memberOcc...)
	n.members = make([][]member, len(q.members))
	for li, l := range q.members {
		if len(l) > 0 {
			n.members[li] = append([]member(nil), l...)
		}
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
	n.segOccSum = append([]int64(nil), q.segOccSum...)
	n.demChains.Steps = q.demChains.CloneSteps()
	return n
}
