package core

import (
	"reflect"
	"testing"

	"repro/internal/uop"
)

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

// A quiescent queue can hold only stale crossings: a frozen or finished
// countdown has none pending. Skipping a window in which such an item
// falls due must pop it exactly as stepping through the window does, so
// that skipping and stepping queues stay deep-equal.
func TestCrossingDueInsideSkipWindow(t *testing.T) {
	q, m, ch := crossingQueue(t, 20) // crossing at 17
	for c := int64(1); c <= 7; c++ {
		q.BeginCycle(c)
		if c == 3 {
			q.assertAt(0, signal{ch: ch, typ: sigSuspend})
		}
	}
	if !m.refs[0].suspended || m.cross != 0 {
		t.Fatalf("suspend did not cancel the crossing: %+v, cross %d", m.refs[0], m.cross)
	}
	if len(q.crossings) != 1 || q.crossings[0].At != 17 {
		t.Fatalf("crossing heap %+v, want the stale item at tick 17", q.crossings)
	}
	if !q.Quiescent(7) {
		t.Fatal("queue not quiescent")
	}
	skip, step := q.Clone(uop.NewCloneMap()).(*SegmentedIQ), q.Clone(uop.NewCloneMap()).(*SegmentedIQ)
	skip.SkipCycles(8, 30)
	for c := int64(8); c < 30; c++ {
		step.BeginCycle(c)
		step.EndCycle(c, true)
	}
	for _, x := range []*SegmentedIQ{skip, step} {
		if len(x.crossings) != 0 {
			t.Fatalf("crossing heap %+v after the window, want it drained", x.crossings)
		}
		x.BeginCycle(30)
		if err := x.checkIndex(); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(skip, step) {
		t.Fatal("skipping and stepping queues diverged")
	}
}
