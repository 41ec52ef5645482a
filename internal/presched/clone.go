package presched

import (
	"repro/internal/iq"
	"repro/internal/uop"
)

// Clone implements iq.Queue: a deep copy of the scheduling array and its
// indexes, issue buffer and availability table with every held
// instruction remapped through m. Scratch storage is not carried over.
func (q *PreschedIQ) Clone(m *uop.CloneMap) iq.Queue {
	n := new(PreschedIQ)
	*n = *q
	n.outScratch = nil
	n.lines = make([][]*uop.UOp, len(q.lines))
	n.keys = make([][]int64, len(q.keys))
	for r, row := range q.lines {
		if len(row) == 0 {
			continue
		}
		nr := make([]*uop.UOp, len(row))
		for i, u := range row {
			nr[i] = m.Get(u)
		}
		n.lines[r] = nr
		n.keys[r] = append([]int64(nil), q.keys[r]...)
	}
	n.minIdx = append([]int32(nil), q.minIdx...)
	n.tree = append([]minNode(nil), q.tree...)
	n.openW = append([]uint64(nil), q.openW...)
	n.buf = make([]bufEntry, len(q.buf))
	for i, e := range q.buf {
		n.buf[i] = bufEntry{u: m.Get(e.u), at: e.at, h: e.h}
	}
	n.tslot = make([]*uop.UOp, len(q.tslot))
	for i, u := range q.tslot {
		n.tslot[i] = m.Get(u)
	}
	n.free = append([]int32(nil), q.free...)
	n.readyW = append([]uint64(nil), q.readyW...)
	n.storeW = append([]uint64(nil), q.storeW...)
	n.sb = q.sb.Clone(m)
	n.unresolved = make([]*uop.UOp, len(q.unresolved))
	for i, u := range q.unresolved {
		n.unresolved[i] = m.Get(u)
	}
	n.avail = append([]availEntry(nil), q.avail...)
	for i := range n.avail {
		n.avail[i].producer = m.Get(n.avail[i].producer)
	}
	n.dem.Steps = q.dem.CloneSteps()
	return n
}

// Demands implements iq.Queue: an informational occupancy curve. The
// design keeps no bound-independent allocation discipline to refit, so
// the curve guides reporting only.
func (q *PreschedIQ) Demands() []iq.DemandCurve {
	return []iq.DemandCurve{{Dim: "iq", Steps: q.dem.Steps}}
}

// CloneBounded implements iq.Queue: refitting to a tighter bound is not
// supported — placement decisions depend on the structure geometry — so
// prefix sharing always falls back to a cold fork for this design.
func (q *PreschedIQ) CloneBounded(m *uop.CloneMap, bound int) (iq.Queue, bool) {
	return nil, false
}
