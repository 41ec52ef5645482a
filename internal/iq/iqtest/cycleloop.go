package iqtest

import (
	"testing"

	"repro/internal/iq"
	"repro/internal/isa"
	"repro/internal/uop"
)

// QueueCycleLoop is the steady-state cycle loop the queue cycle
// benchmarks time: q is loaded with 400 independent ALU instructions, then
// each operation runs BeginCycle, Issue (accepting everything), Writeback
// and a refill Dispatch per issued instruction, and EndCycle. Every
// instruction lives in a preallocated ring eight times the largest queue
// measured (512 entries), so a slot comes back round only long after its
// previous occupant issued and wrote back, and the loop measures the queue
// rather than the allocator.
func QueueCycleLoop(b *testing.B, q iq.Queue) {
	b.ReportAllocs()
	ring := make([]uop.UOp, 4096)
	queued := make([]bool, len(ring))
	var seq int64
	dispatch := func(c int64, in isa.Inst) bool {
		i := seq % int64(len(ring))
		if queued[i] {
			b.Fatalf("ring slot of instruction %d reused while still queued", ring[i].Seq)
		}
		u := &ring[i]
		*u = *uop.New(seq, in)
		seq++
		queued[i] = q.Dispatch(c, u)
		return queued[i]
	}
	for i := 0; i < 400; i++ {
		in := isa.Inst{Class: isa.IntAlu, Src1: isa.RegNone, Src2: isa.RegNone, Dest: 1 + i%20}
		if !dispatch(0, in) {
			break
		}
	}
	accept := func(*uop.UOp) bool { return true }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := int64(i + 1)
		q.BeginCycle(c)
		for _, u := range q.Issue(c, 8, accept) {
			queued[u.Seq%int64(len(ring))] = false
			u.Complete = c + 1
			q.Writeback(c+1, u)
			dispatch(c, u.Inst)
		}
		q.EndCycle(c, true)
	}
}
