package core

// CheckIndex exposes checkIndex to the external machine-level tests.
func (q *SegmentedIQ) CheckIndex() error { return q.checkIndex() }
