package presched_test

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/presched"
	"repro/internal/uop"
)

// TestCycleLoopDoesNotAllocate pins the zero-allocation property of the
// prescheduling array's steady-state cycle loop: once the scratch buffers
// have grown to their working size, BeginCycle + Issue + EndCycle over a
// loaded queue must allocate nothing. (Issue candidates are offered but
// refused, so the queue stays loaded and no refill uops — which do
// allocate — are needed.)
func TestCycleLoopDoesNotAllocate(t *testing.T) {
	q := presched.MustNew(presched.DefaultConfig(320))
	var seq int64
	for i := 0; i < 320; i++ {
		in := isa.Inst{Class: isa.IntAlu, Src1: isa.RegNone, Src2: isa.RegNone, Dest: 1 + i%20}
		if !q.Dispatch(0, uop.New(seq, in)) {
			break
		}
		seq++
	}
	refuse := func(*uop.UOp) bool { return false }
	cycle := int64(1)
	step := func() {
		q.BeginCycle(cycle)
		q.Issue(cycle, 8, refuse)
		q.EndCycle(cycle, true)
		cycle++
	}
	for i := 0; i < 8; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(100, step); avg != 0 {
		t.Errorf("steady-state cycle loop allocates %.1f objects/cycle, want 0", avg)
	}
}

// TestWedgedCycleLoopDoesNotAllocate pins the same property for the
// wedge recycling exists for: the issue buffer full of campers on a load
// that never completes, and every row full, so each cycle recycles the
// head row's worth of campers through the swap path.
func TestWedgedCycleLoopDoesNotAllocate(t *testing.T) {
	for _, size := range []int{320, 1472} {
		q := presched.MustNew(presched.DefaultConfig(size))
		ld := uop.New(0, isa.Inst{Class: isa.Load, Src1: isa.RegNone, Src2: isa.RegNone, Dest: 1, Size: 8})
		seq := int64(1)
		refuse := func(*uop.UOp) bool { return false }
		cycle := int64(1)
		step := func() {
			q.BeginCycle(cycle)
			q.Issue(cycle, 8, refuse)
			q.EndCycle(cycle, true)
			cycle++
		}
		for q.Len() < q.Capacity() && cycle < 100 {
			for {
				u := uop.New(seq, isa.Inst{Class: isa.IntAlu, Src1: 1, Src2: isa.RegNone, Dest: 2})
				u.Prod[0] = ld
				if !q.Dispatch(cycle, u) {
					break
				}
				seq++
			}
			step()
		}
		if q.Len() != q.Capacity() || !q.RowsFull() {
			t.Fatalf("%d slots: queue holds %d of %d after %d cycles, rows full %v", size, q.Len(), q.Capacity(), cycle, q.RowsFull())
		}
		for i := 0; i < 8; i++ {
			step()
		}
		held := 0
		wedged := func() {
			before := q.Recycled()
			step()
			if q.Recycled() > before && q.RowsFull() && q.Len() == q.Capacity() {
				held++
			}
		}
		const runs = 100
		if avg := testing.AllocsPerRun(runs, wedged); avg != 0 {
			t.Errorf("%d slots: wedged cycle loop allocates %.1f objects/cycle, want 0", size, avg)
		}
		// AllocsPerRun makes one warm-up call before the measured ones.
		if held != runs+1 {
			t.Errorf("%d slots: the wedge held in %d of %d cycles", size, held, runs+1)
		}
		if err := q.CheckIndex(); err != nil {
			t.Errorf("%d slots: %v", size, err)
		}
	}
}
