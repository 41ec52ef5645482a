package pipeline

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/iq"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/uop"
)

// walkLSQ is the load/store queue as it was before Tick followed events:
// every Tick walks every resident entry in program order, rebuilds the
// forwarding index from scratch (here a plain map) and stamps stores by
// polling. It learns addresses from EADone alone. It is the reference the
// event-driven LSQ is held to.
type walkLSQ struct {
	entries    []*uop.UOp
	writeQ     []memWrite
	l1d        *mem.Cache
	eq         *mem.EventQueue
	rdPorts    int
	wrPorts    int
	missLat    int64
	coverEpoch uint64
	wqRejGen   uint64
	done       []string

	forwards, mshrRejects, loadsIssued, storeWrites, blockedByStore uint64
}

func (l *walkLSQ) HandleEvent(op uint8, t int64, k mem.Kind, arg any) {
	switch op {
	case lsqOpLoadDone:
		u := arg.(*uop.UOp)
		u.Complete = t
		u.MemKind = int8(k)
		l.done = append(l.done, fmt.Sprintf("%d:%d", t, u.Seq))
	case lsqOpFwdDone:
		l.done = append(l.done, fmt.Sprintf("%d:%d", t, arg.(*uop.UOp).Seq))
	}
}

func (l *walkLSQ) remove(u *uop.UOp) {
	if u.IsStore() {
		l.coverEpoch++
	}
	for i, e := range l.entries {
		if e == u {
			l.entries = append(l.entries[:i], l.entries[i+1:]...)
			return
		}
	}
}

func walkCover(c map[uint64]uint16, addr uint64, size uint8) {
	end := addr + uint64(size) - 1
	for b := addr >> 4; b <= end>>4; b++ {
		lo, hi := uint64(0), uint64(15)
		if b == addr>>4 {
			lo = addr & 15
		}
		if b == end>>4 {
			hi = end & 15
		}
		c[b] |= uint16(1)<<(hi+1) - uint16(1)<<lo
	}
}

func walkHit(c map[uint64]uint16, addr uint64, size uint8) bool {
	end := addr + uint64(size) - 1
	for b := addr >> 4; b <= end>>4; b++ {
		lo, hi := uint64(0), uint64(15)
		if b == addr>>4 {
			lo = addr & 15
		}
		if b == end>>4 {
			hi = end & 15
		}
		if c[b]&(uint16(1)<<(hi+1)-uint16(1)<<lo) != 0 {
			return true
		}
	}
	return false
}

func (l *walkLSQ) tick(cycle int64) {
	for wr := 0; wr < l.wrPorts && len(l.writeQ) > 0; wr++ {
		w := l.writeQ[0]
		if l.wqRejGen != 0 && l.wqRejGen == l.l1d.AcceptGen() {
			l.l1d.SkipMSHRRejects(1)
			break
		}
		if !l.l1d.AccessRef(cycle, w.addr, true, mem.Ref{H: l, Op: lsqOpStoreDrain}) {
			l.wqRejGen = l.l1d.AcceptGen()
			break
		}
		l.wqRejGen = 0
		l.writeQ = l.writeQ[1:]
		l.storeWrites++
		l.coverEpoch++
	}
	cover := make(map[uint64]uint16)
	for _, w := range l.writeQ {
		walkCover(cover, w.addr, w.size)
	}
	rd, unknownStore, contrib := 0, false, uint64(0)
	for _, u := range l.entries {
		if u.IsStore() {
			if u.EADone == uop.NotYet || u.EADone > cycle {
				unknownStore = true
			} else {
				walkCover(cover, u.Inst.Addr, u.Inst.Size)
				contrib++
				if u.Complete == uop.NotYet && u.OperandReady(0, cycle) {
					u.Complete = cycle
				}
			}
			continue
		}
		if u.Complete != uop.NotYet || u.MemKind != uop.MemNone || u.EADone == uop.NotYet || u.EADone > cycle {
			continue
		}
		if unknownStore {
			l.blockedByStore++
			continue
		}
		fwdKey := l.coverEpoch<<16 | contrib
		if u.FwdKey != fwdKey {
			if walkHit(cover, u.Inst.Addr, u.Inst.Size) {
				l.forwards++
				u.MemKind = uop.MemHit
				u.Complete = cycle + 1
				l.eq.ScheduleRef(cycle+1, mem.Ref{H: l, Op: lsqOpFwdDone, Arg: u})
				continue
			}
			u.FwdKey = fwdKey
		}
		if rd >= l.rdPorts {
			continue
		}
		if u.RejGen != 0 && u.RejGen == l.l1d.AcceptGen() {
			l.mshrRejects++
			l.l1d.SkipMSHRRejects(1)
			continue
		}
		kind, ok := l.l1d.AccessRefKind(cycle, u.Inst.Addr, false, mem.Ref{H: l, Op: lsqOpLoadDone, Arg: u})
		if !ok {
			l.mshrRejects++
			u.RejGen = l.l1d.AcceptGen()
			continue
		}
		rd++
		l.loadsIssued++
		u.MemKind = int8(kind)
		if kind != mem.KindHit {
			l.eq.ScheduleRef(cycle+l.missLat, mem.Ref{H: l, Op: lsqOpMissNotif, Arg: u})
		}
	}
}

// lsqSide is one machine of the differential test: a queue over its own
// memory hierarchy and its own copies of the instructions.
type lsqSide struct {
	h     *mem.Hierarchy
	uops  []*uop.UOp
	prods []*uop.UOp // each store's data producer
}

func lsqTestHierarchy() *mem.Hierarchy {
	cfg := mem.DefaultHierarchyConfig()
	cfg.L1D.Size, cfg.L1D.Ways, cfg.L1D.MSHRs = 1024, 2, 2
	return mem.MustNewHierarchy(cfg)
}

// TestLSQMatchesFullWalk drives the event-driven LSQ and the full-walk
// reference through the same seeded random sequences of dispatch,
// address issue, store-data arrival, commit and store drain, over a small
// data cache with two MSHRs so that accesses are rejected and accepted
// often. Every cycle, every instruction's Complete, MemKind and EADone,
// the completions delivered so far, the pending events and every counter
// must agree, cache-side rejects included.
func TestLSQMatchesFullWalk(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { lsqDifferential(t, seed, 3000) })
	}
}

func lsqDifferential(t *testing.T, seed int64, cycles int64) {
	rng := rand.New(rand.NewSource(seed))
	const capacity = 24
	rdPorts, wrPorts := 1+rng.Intn(3), 1+rng.Intn(2)

	ev, ref := lsqTestHierarchy(), lsqTestHierarchy()
	l := NewLSQ(capacity, ev.L1D, ev.EQ, iq.NewConventional(64), rdPorts, wrPorts)
	var evDone []string
	l.OnLoadDone = func(c int64, u *uop.UOp) { evDone = append(evDone, fmt.Sprintf("%d:%d", c, u.Seq)) }
	w := &walkLSQ{l1d: ref.L1D, eq: ref.EQ, rdPorts: rdPorts, wrPorts: wrPorts,
		missLat: int64(ref.L1D.Config().HitLatency), coverEpoch: 1}
	a := &lsqSide{h: ev}
	b := &lsqSide{h: ref}

	var pendingEA []int // dispatched, address not yet issued
	var dataAt []int64  // per instruction: when its store data resolves (NotYet: unknown yet)
	var oldest int      // index of the oldest resident instruction
	for c := int64(0); c < cycles; c++ {
		ev.Tick(c)
		ref.Tick(c)

		// Commit in order while the head has completed.
		for n := rng.Intn(3); n > 0 && oldest < len(a.uops); n-- {
			u, v := a.uops[oldest], b.uops[oldest]
			if u.Complete == uop.NotYet || u.Complete > c {
				break
			}
			if u.IsStore() {
				l.CommitStore(u)
				w.remove(v)
				w.writeQ = append(w.writeQ, memWrite{addr: v.Inst.Addr, size: v.Inst.Size})
				w.coverEpoch++
			} else {
				l.Remove(u)
				w.remove(v)
			}
			oldest++
		}

		// Store data producers resolve: some learn their completion cycle
		// ahead of time, some only when it arrives.
		for i, at := range dataAt {
			if at == uop.NotYet || a.prods[i] == nil || a.prods[i].Complete != uop.NotYet {
				continue
			}
			if at-c <= 2 || rng.Intn(4) == 0 {
				a.prods[i].Complete, b.prods[i].Complete = at, at
			}
		}

		// Issue some address calculations, in any order.
		for n := rng.Intn(3); n > 0 && len(pendingEA) > 0; n-- {
			j := rng.Intn(len(pendingEA))
			i := pendingEA[j]
			pendingEA = append(pendingEA[:j], pendingEA[j+1:]...)
			at := c + 1 + int64(rng.Intn(3))
			l.IssueAddress(a.uops[i], at)
			b.uops[i].EADone = at
		}

		// Dispatch.
		for n := rng.Intn(3); n > 0 && !l.Full(); n-- {
			seq := int64(len(a.uops))
			addr := uint64(0x1000 + 8*rng.Intn(48) + rng.Intn(4))
			size := uint8(1 << rng.Intn(4))
			class := isa.Load
			if rng.Intn(3) == 0 {
				class = isa.Store
			}
			in := isa.Inst{Class: class, Src1: 1, Src2: isa.RegNone, Dest: 2, Size: size, Addr: addr}
			var pa, pb *uop.UOp
			at := int64(uop.NotYet)
			if class == isa.Store {
				in.Src1, in.Src2, in.Dest = 3, 1, isa.RegNone
				if rng.Intn(4) != 0 {
					pa = uop.New(-seq, isa.Inst{Class: isa.IntAlu, Dest: 3})
					pb = uop.New(-seq, isa.Inst{Class: isa.IntAlu, Dest: 3})
					at = c + int64(rng.Intn(40))
				}
			}
			u, v := uop.New(seq, in), uop.New(seq, in)
			u.Prod[0], v.Prod[0] = pa, pb
			a.uops, b.uops = append(a.uops, u), append(b.uops, v)
			a.prods, b.prods = append(a.prods, pa), append(b.prods, pb)
			dataAt = append(dataAt, at)
			l.Add(u)
			w.entries = append(w.entries, v)
			pendingEA = append(pendingEA, int(seq))
		}

		l.Tick(c)
		w.tick(c)

		for i := oldest; i < len(a.uops); i++ {
			u, v := a.uops[i], b.uops[i]
			if u.Complete != v.Complete || u.MemKind != v.MemKind || u.EADone != v.EADone {
				t.Fatalf("cycle %d seq %d: complete %d kind %d ea %d, reference %d %d %d",
					c, i, u.Complete, u.MemKind, u.EADone, v.Complete, v.MemKind, v.EADone)
			}
		}
		got := [...]uint64{l.forwards, l.mshrRejects, l.loadsIssued, l.storeWrites, l.blockedByStore,
			ev.L1D.Stats().MSHRRejects, uint64(ev.EQ.Len()), uint64(l.Len()), uint64(len(evDone))}
		want := [...]uint64{w.forwards, w.mshrRejects, w.loadsIssued, w.storeWrites, w.blockedByStore,
			ref.L1D.Stats().MSHRRejects, uint64(ref.EQ.Len()), uint64(len(w.entries)), uint64(len(w.done))}
		if got != want {
			t.Fatalf("cycle %d: forwards, rejects, loads, store writes, blocked, cache rejects, events, occupancy, completions\n got %v\nwant %v", c, got, want)
		}
		if n := len(evDone); n > 0 && evDone[n-1] != w.done[n-1] {
			t.Fatalf("cycle %d: completion %s, reference %s", c, evDone[n-1], w.done[n-1])
		}
	}
	if l.forwards == 0 || l.mshrRejects == 0 || l.blockedByStore == 0 || l.storeWrites == 0 {
		t.Fatalf("sequence too tame: forwards %d, rejects %d, blocked %d, store writes %d",
			l.forwards, l.mshrRejects, l.blockedByStore, l.storeWrites)
	}
}

// TestLSQSteadyStateDoesNotAllocate: once its lists have grown to their
// working size, Tick and commit allocate nothing.
func TestLSQSteadyStateDoesNotAllocate(t *testing.T) {
	h := lsqTestHierarchy()
	l := NewLSQ(32, h.L1D, h.EQ, iq.NewConventional(64), 2, 1)
	var seq int64
	cycle := int64(0)
	step := func() {
		h.Tick(cycle)
		for l.Len() > 0 {
			u := l.entries.at(0)
			if u.Complete == uop.NotYet || u.Complete > cycle {
				break
			}
			if u.IsStore() {
				l.CommitStore(u)
			} else {
				l.Remove(u)
			}
		}
		l.Tick(cycle)
		cycle++
	}
	// Fill the queue with instructions whose addresses arrive over time;
	// the dispatch side (uop.New) allocates, so it happens up front.
	var all []*uop.UOp
	for i := 0; i < 4000; i++ {
		class := isa.Load
		if i%4 == 3 {
			class = isa.Store
		}
		u := uop.New(seq, isa.Inst{Class: class, Src1: 1, Src2: isa.RegNone, Dest: 2, Size: 8,
			Addr: uint64(0x2000 + 8*(i%64))})
		seq++
		all = append(all, u)
	}
	next := 0
	refill := func() {
		for next < len(all) && !l.Full() {
			l.Add(all[next])
			l.IssueAddress(all[next], cycle+1)
			next++
		}
	}
	for i := 0; i < 200; i++ {
		refill()
		step()
	}
	if avg := testing.AllocsPerRun(200, func() { refill(); step() }); avg != 0 {
		t.Errorf("steady-state Tick and commit allocate %.2f objects/cycle, want 0", avg)
	}
	if next == len(all) || l.LoadsIssued() == 0 || l.StoreWrites() == 0 {
		t.Fatalf("the queue ran dry or idle: %d/%d dispatched, %d loads, %d store writes",
			next, len(all), l.LoadsIssued(), l.StoreWrites())
	}
}
