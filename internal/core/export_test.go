package core

// CheckIndex exposes checkIndex to the external machine-level tests.
func (q *SegmentedIQ) CheckIndex() error { return q.checkIndex() }

// LiveCrossings counts the resident entries waiting on a threshold
// crossing in the heap.
func (q *SegmentedIQ) LiveCrossings() int {
	n := 0
	for _, seg := range q.segs {
		for _, e := range seg {
			if e.cross != 0 {
				n++
			}
		}
	}
	return n
}
