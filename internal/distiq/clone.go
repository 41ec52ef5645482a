package distiq

import (
	"repro/internal/iq"
	"repro/internal/uop"
)

// Clone implements iq.Queue: a deep copy of the scheduling array, wait
// buffer and availability table with every held instruction remapped
// through m. Scratch storage is not carried over.
func (q *DistIQ) Clone(m *uop.CloneMap) iq.Queue {
	n := new(DistIQ)
	*n = *q
	n.outScratch = nil
	n.lines = make([][]*uop.UOp, len(q.lines))
	for r, row := range q.lines {
		if len(row) == 0 {
			continue
		}
		nr := make([]*uop.UOp, len(row))
		for i, u := range row {
			nr[i] = m.Get(u)
		}
		n.lines[r] = nr
	}
	n.wait = make([]*uop.UOp, len(q.wait))
	for i, u := range q.wait {
		n.wait[i] = m.Get(u)
	}
	n.waitH = append([]int32(nil), q.waitH...)
	n.freeT = append([]int32(nil), q.freeT...)
	n.recheckW = append([]uint64(nil), q.recheckW...)
	n.wt = q.wt.Clone(m)
	n.unresolved = make([]*uop.UOp, len(q.unresolved))
	for i, u := range q.unresolved {
		n.unresolved[i] = m.Get(u)
	}
	n.wakeBuf = nil
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
func (q *DistIQ) Demands() []iq.DemandCurve {
	return []iq.DemandCurve{{Dim: "iq", Steps: q.dem.Steps}}
}

// CloneBounded implements iq.Queue: refitting to a tighter bound is not
// supported — placement decisions depend on the structure geometry — so
// prefix sharing always falls back to a cold fork for this design.
func (q *DistIQ) CloneBounded(m *uop.CloneMap, bound int) (iq.Queue, bool) {
	return nil, false
}
