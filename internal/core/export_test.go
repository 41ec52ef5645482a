package core

import "repro/internal/uop"

// CheckIndex exposes checkIndex to the external machine-level tests.
func (q *SegmentedIQ) CheckIndex() error { return q.checkIndex() }

// LiveCrossings counts the resident entries waiting on a threshold
// crossing in the heap.
func (q *SegmentedIQ) LiveCrossings() int {
	n := 0
	for _, seg := range q.segs {
		for _, h := range seg {
			if q.arena[h].cross != 0 {
				n++
			}
		}
	}
	return n
}

// ent returns the entry u was dispatched into. The pointer is valid until
// the arena next grows (a dispatch or addRaw past its reservation).
func (q *SegmentedIQ) ent(u *uop.UOp) *entry {
	e, ok := q.entryOf(u)
	if !ok {
		panic("core: instruction has no live entry")
	}
	return e
}
