package iq

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/uop"
)

func sbAlu(seq int64) *uop.UOp {
	return uop.New(seq, isa.Inst{Class: isa.IntAlu, Src1: isa.RegNone, Src2: isa.RegNone, Dest: 1})
}

func sbStore(seq int64) *uop.UOp {
	return uop.New(seq, isa.Inst{Class: isa.Store, Src1: 1, Src2: 2, Dest: isa.RegNone})
}

func TestScoreboardImmediatelyReady(t *testing.T) {
	var s Scoreboard
	s.Grow(4)
	if !s.Track(0, sbAlu(0), 3) {
		t.Fatal("operand-free instruction should be ready at track time")
	}
	if s.Pending() {
		t.Error("nothing should be parked or scheduled")
	}
}

func TestScoreboardParkAndWake(t *testing.T) {
	var s Scoreboard
	s.Grow(4)
	p := sbAlu(0)
	c := sbAlu(1)
	c.Prod[0] = p
	if s.Track(1, c, 0) {
		t.Fatal("consumer of an unresolved producer must not be ready")
	}
	if got := s.Due(5); len(got) != 0 {
		t.Fatalf("nothing scheduled, Due = %v", got)
	}
	p.Complete = 4
	// Wake at cycle 2: completion is in the future, so the handle moves
	// to the wheel and surfaces from Due exactly at cycle 4.
	if got := s.Wake(p, 2); len(got) != 0 {
		t.Fatalf("wake before completion returned %v", got)
	}
	if got := s.Due(3); len(got) != 0 {
		t.Fatalf("Due(3) = %v, want empty", got)
	}
	if got := s.Due(4); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Due(4) = %v, want [1]", got)
	}
	if s.Pending() {
		t.Error("scoreboard should be drained")
	}
}

func TestScoreboardWakeSameCycle(t *testing.T) {
	var s Scoreboard
	s.Grow(2)
	p := sbAlu(0)
	c := sbAlu(1)
	c.Prod[1] = p
	s.Track(0, c, 0)
	p.Complete = 7
	if got := s.Wake(p, 7); len(got) != 1 || got[0] != 0 {
		t.Fatalf("Wake at the completion cycle = %v, want [0]", got)
	}
}

func TestScoreboardReparksOnSecondProducer(t *testing.T) {
	var s Scoreboard
	s.Grow(2)
	p0, p1 := sbAlu(0), sbAlu(1)
	c := sbAlu(2)
	c.Prod[0] = p0
	c.Prod[1] = p1
	s.Track(0, c, 0)
	p0.Complete = 2
	if got := s.Wake(p0, 2); len(got) != 0 {
		t.Fatalf("still blocked on p1, Wake = %v", got)
	}
	p1.Complete = 9
	if got := s.Wake(p1, 9); len(got) != 1 {
		t.Fatalf("Wake after last producer = %v", got)
	}
}

func TestScoreboardStoreDataDoesNotGate(t *testing.T) {
	var s Scoreboard
	s.Grow(2)
	data, addr := sbAlu(0), sbAlu(1)
	st := sbStore(2)
	st.Prod[0] = data // pending data must not gate issue
	st.Prod[1] = addr
	addr.Complete = 0
	if !s.Track(0, st, 1) {
		t.Fatal("store with resolved address should be issue-ready")
	}
}

func TestScoreboardUntrackCancelsWheelAndChain(t *testing.T) {
	var s Scoreboard
	s.Grow(4)
	p := sbAlu(0)
	parked, wheeled := sbAlu(1), sbAlu(2)
	parked.Prod[0] = p
	wheeled.Prod[0] = p
	s.Track(1, parked, 0)
	p.Complete = 6
	s.Track(2, wheeled, 0) // known future completion: goes to the wheel
	s.Untrack(1)
	s.Untrack(2)
	if got := s.Wake(p, 6); len(got) != 0 {
		t.Fatalf("untracked handle woke: %v", got)
	}
	if got := s.Due(6); len(got) != 0 {
		t.Fatalf("untracked handle surfaced from wheel: %v", got)
	}
	// Reusing handle 2 must not inherit the stale wheel entry.
	q := sbAlu(3)
	if !s.Track(2, q, 10) {
		t.Fatal("reused handle should be ready")
	}
}

func TestScoreboardManyWaitersOneProducer(t *testing.T) {
	var s Scoreboard
	s.Grow(8)
	p := sbAlu(0)
	for h := int32(0); h < 8; h++ {
		c := sbAlu(int64(h) + 1)
		c.Prod[0] = p
		s.Track(h, c, 0)
	}
	s.Untrack(3) // drop one from the middle of the chain
	p.Complete = 1
	got := s.Wake(p, 1)
	if len(got) != 7 {
		t.Fatalf("woke %d handles, want 7: %v", len(got), got)
	}
	seen := map[int32]bool{}
	for _, h := range got {
		if h == 3 {
			t.Fatal("untracked handle woke")
		}
		seen[h] = true
	}
	if len(seen) != 7 {
		t.Fatalf("duplicate handles in %v", got)
	}
}

func TestScoreboardClone(t *testing.T) {
	var s Scoreboard
	s.Grow(4)
	p := sbAlu(0)
	parked := sbAlu(1)
	parked.Prod[0] = p
	s.Track(0, parked, 0)
	fut := sbAlu(2)
	done := sbAlu(3)
	done.Complete = 9
	fut.Prod[0] = done
	s.Track(1, fut, 0)

	m := uop.NewCloneMap()
	cs := s.Clone(m)

	// Waking the original producer must not affect the clone…
	p.Complete = 2
	if got := s.Wake(p, 2); len(got) != 1 {
		t.Fatalf("original Wake = %v", got)
	}
	// …whose chain still holds the cloned consumer, keyed by the cloned
	// producer pointer.
	if got := cs.Wake(p, 2); len(got) != 0 {
		t.Fatalf("clone woke on the original pointer: %v", got)
	}
	cp := m.Get(p)
	cp.Complete = 2
	if got := cs.Wake(cp, 2); len(got) != 1 || got[0] != 0 {
		t.Fatalf("clone Wake on cloned producer = %v", got)
	}
	if got := cs.Due(9); len(got) != 1 || got[0] != 1 {
		t.Fatalf("clone Due = %v", got)
	}
}

// parkChains parks handles 0..7 of a table on three producers, round
// robin, then drops handle 4 from the middle of its chain. Each test
// gets its own producers: a producer's chain head belongs to one table.
func parkChains(park func(h int32, p *uop.UOp), unpark func(h int32)) []*uop.UOp {
	prods := []*uop.UOp{sbAlu(0), sbAlu(1), sbAlu(2)}
	for h := int32(0); h < 8; h++ {
		park(h, prods[h%3])
	}
	unpark(4)
	return prods
}

// wakeTwins wakes each producer in the original table and then its clone
// in the cloned one; both must hand back the same handles, and waking
// one table must leave the other's chains intact.
func wakeTwins(t *testing.T, prods []*uop.UOp, m *uop.CloneMap,
	wake, wakeClone func(p *uop.UOp) []int32, check, checkClone func() error) {
	t.Helper()
	clones := make([]*uop.UOp, len(prods))
	for i, p := range prods {
		clones[i] = m.Get(p)
	}
	if err := checkClone(); err != nil {
		t.Fatalf("clone before any wake: %v", err)
	}
	for i, p := range prods {
		p.Complete, clones[i].Complete = 1, 1
		got := append([]int32(nil), wake(p)...)
		if err := checkClone(); err != nil {
			t.Fatalf("clone after waking original producer %d: %v", i, err)
		}
		if clones[i].WaitHead == 0 {
			t.Fatalf("waking original producer %d emptied the clone's chain", i)
		}
		gotClone := wakeClone(clones[i])
		if err := check(); err != nil {
			t.Fatalf("original after waking clone producer %d: %v", i, err)
		}
		if len(got) != len(gotClone) || len(got) == 0 {
			t.Fatalf("producer %d: original woke %v, clone %v", i, got, gotClone)
		}
		for j := range got {
			if got[j] != gotClone[j] || got[j] == 4 {
				t.Fatalf("producer %d: original woke %v, clone %v", i, got, gotClone)
			}
		}
	}
}

func TestScoreboardChainsAcrossClone(t *testing.T) {
	var s Scoreboard
	s.Grow(8)
	prods := parkChains(func(h int32, p *uop.UOp) {
		c := sbAlu(int64(10 + h))
		c.Prod[0] = p
		s.Track(h, c, 0)
	}, s.Untrack)
	m := uop.NewCloneMap()
	cs := s.Clone(m)
	wakeTwins(t, prods, m,
		func(p *uop.UOp) []int32 { return s.Wake(p, 1) },
		func(p *uop.UOp) []int32 { return cs.Wake(p, 1) },
		s.CheckChains, cs.CheckChains)
	if s.Pending() || cs.Pending() {
		t.Fatal("both scoreboards should be drained")
	}
}

func TestWaitersChainsAcrossClone(t *testing.T) {
	var w Waiters
	w.Grow(8)
	prods := parkChains(w.Park, w.Unpark)
	m := uop.NewCloneMap()
	cw := w.Clone(m)
	var buf, cbuf []int32
	wakeTwins(t, prods, m,
		func(p *uop.UOp) []int32 { buf = w.WakeAll(p, buf[:0]); return buf },
		func(p *uop.UOp) []int32 { cbuf = cw.WakeAll(p, cbuf[:0]); return cbuf },
		w.wt.check, cw.wt.check)
	if w.Pending() || cw.Pending() {
		t.Fatal("both tables should be drained")
	}
}
