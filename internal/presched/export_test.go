package presched

// CheckIndex exposes checkIndex to the external machine-level tests.
func (q *PreschedIQ) CheckIndex() error { return q.checkIndex() }

// Recycled returns how many campers recycling has moved back into the
// scheduling array.
func (q *PreschedIQ) Recycled() uint64 { return q.stRecycled.Value() }

// RowsFull reports, by recount, whether every row but the head is full:
// a camper recycled in this state must take the swap path.
func (q *PreschedIQ) RowsFull() bool {
	for r, row := range q.lines {
		if r != q.head && len(row) < q.cfg.LineWidth {
			return false
		}
	}
	return true
}
