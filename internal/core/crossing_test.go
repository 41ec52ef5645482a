package core

import "testing"

// crossingQueue plants one member in the top segment of a three-segment
// queue whose self-timed countdown on a fresh chain runs out at tick due.
// Pushdown is off, so the member leaves the segment only by promotion:
// when its delay falls below threshold(1) = 4, at tick due-3.
func crossingQueue(t *testing.T, due int64) (*SegmentedIQ, *entry, chain) {
	t.Helper()
	cfg := smallCfg(3, 8, 8)
	cfg.Pushdown = false
	q := MustNew(cfg)
	ch, _ := q.chains.alloc()
	m := addRaw(q, 2, 0, 0, -1)
	m.refs[0] = chainRef{ch: ch, due: due, selfTimed: true}
	m.nrefs = 1
	q.link(m)
	if m.cross != due-3 {
		t.Fatalf("crossing scheduled at tick %d, want %d", m.cross, due-3)
	}
	return q, m, ch
}

// A suspend that reaches a member before its crossing cancels it; the
// resume re-arms the countdown from the frozen value, and the member
// promotes at the new crossing, not the old one, then on into segment 0
// at its crossing of threshold(0) = 2.
func TestCrossingAcrossSuspendResume(t *testing.T) {
	q, m, ch := crossingQueue(t, 10) // would promote in cycle 7
	for c := int64(1); c <= 16; c++ {
		q.BeginCycle(c)
		if err := q.checkIndex(); err != nil {
			t.Fatalf("cycle %d: %v", c, err)
		}
		// The signals enter at segment 0 and climb one segment a cycle,
		// so each reaches the member two BeginCycles later, stamped with
		// the tick before that cycle's: the suspend freezes 10-4 = 6 and
		// the resume restarts it at tick 10, due 16, crossing 4 at tick 13
		// and 2 at tick 15.
		switch c {
		case 3:
			q.assertAt(0, signal{ch: ch, typ: sigSuspend})
		case 9:
			q.assertAt(0, signal{ch: ch, typ: sigResume})
		}
		want := 2
		switch {
		case c >= 15:
			want = 0
		case c >= 13:
			want = 1
		}
		if m.seg != want {
			t.Fatalf("cycle %d: member in segment %d, want %d", c, m.seg, want)
		}
	}
}
