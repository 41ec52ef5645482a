package pipeline

import (
	"testing"

	"repro/internal/iq"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/uop"
)

func newTestLSQ(t *testing.T, capacity int) (*LSQ, *mem.Hierarchy, iq.Queue) {
	t.Helper()
	h := mem.MustNewHierarchy(mem.DefaultHierarchyConfig())
	q := iq.NewConventional(64)
	l := NewLSQ(capacity, h.L1D, h.EQ, q, 8, 8)
	return l, h, q
}

func loadAt(seq int64, addr uint64) *uop.UOp {
	u := uop.New(seq, isa.Inst{Class: isa.Load, Src1: 1, Src2: isa.RegNone, Dest: 2, Size: 8, Addr: addr})
	return u
}

func storeAt(seq int64, addr uint64) *uop.UOp {
	return uop.New(seq, isa.Inst{Class: isa.Store, Src1: 3, Src2: 1, Size: 8, Addr: addr})
}

func runHier(h *mem.Hierarchy, from, to int64) {
	for c := from; c <= to; c++ {
		h.Tick(c)
	}
}

func TestLSQLoadAccess(t *testing.T) {
	l, h, _ := newTestLSQ(t, 8)
	ld := loadAt(0, 0x1000)
	l.Add(ld)
	// EA not ready: no access.
	l.Tick(0)
	if l.LoadsIssued() != 0 {
		t.Fatal("load accessed before its EA was ready")
	}
	l.IssueAddress(ld, 1)
	l.Tick(1)
	if l.LoadsIssued() != 1 {
		t.Fatal("load did not access")
	}
	done := false
	l.OnLoadDone = func(cycle int64, u *uop.UOp) { done = true }
	// Callback set after access... re-register before completion works
	// because finishLoad reads it late.
	runHier(h, 1, 200)
	if !done {
		t.Fatal("load completion callback missing")
	}
	if ld.Complete == uop.NotYet || ld.MemKind != uop.MemMiss {
		t.Fatalf("completion state: complete=%d kind=%d", ld.Complete, ld.MemKind)
	}
	if l.Full() {
		t.Fatal("capacity accounting wrong")
	}
	l.Remove(ld)
	if l.Len() != 0 {
		t.Fatal("remove failed")
	}
}

func TestLSQConservativeStoreBlocking(t *testing.T) {
	l, _, _ := newTestLSQ(t, 8)
	st := storeAt(0, 0x2000)
	ld := loadAt(1, 0x3000) // disjoint address
	l.Add(st)
	l.Add(ld)
	l.IssueAddress(ld, 1)
	// The store's address is unknown: the younger load must wait.
	l.Tick(1)
	if l.LoadsIssued() != 0 {
		t.Fatal("load bypassed an unresolved older store")
	}
	if l.BlockedByStore() == 0 {
		t.Fatal("blocking not counted")
	}
	l.IssueAddress(st, 2)
	st.Complete = 2
	l.Tick(2)
	if l.LoadsIssued() != 1 {
		t.Fatal("load still blocked after store resolved")
	}
}

func TestLSQStoreToLoadForwarding(t *testing.T) {
	l, h, _ := newTestLSQ(t, 8)
	st := storeAt(0, 0x4000)
	ld := loadAt(1, 0x4004) // overlaps the 8-byte store
	l.Add(st)
	l.Add(ld)
	l.IssueAddress(st, 1)
	st.Complete = 1
	l.IssueAddress(ld, 1)
	var doneAt int64 = -1
	l.OnLoadDone = func(cycle int64, u *uop.UOp) { doneAt = cycle }
	l.Tick(2)
	if l.Forwards() != 1 {
		t.Fatal("overlapping store did not forward")
	}
	if l.LoadsIssued() != 0 {
		t.Fatal("forwarded load also accessed the cache")
	}
	runHier(h, 2, 5)
	if doneAt != 3 || ld.Complete != 3 || ld.MemKind != uop.MemHit {
		t.Fatalf("forward completion: at %d, complete %d, kind %d", doneAt, ld.Complete, ld.MemKind)
	}
}

func TestLSQForwardFromRetiredStore(t *testing.T) {
	l, h, _ := newTestLSQ(t, 8)
	st := storeAt(0, 0x5000)
	l.Add(st)
	l.IssueAddress(st, 1)
	st.Complete = 1
	l.CommitStore(st) // retired: moves to the write queue
	if !l.Busy() {
		t.Fatal("write queue should be busy")
	}
	ld := loadAt(1, 0x5000)
	l.Add(ld)
	l.IssueAddress(ld, 2)
	// Tick drains the write first and may forward in the same cycle...
	// the queue is drained at the top of Tick, so forward only works
	// while the write is still pending. Check either forwarding or a
	// normal access happened — but never a stale value path (untracked).
	l.Tick(2)
	runHier(h, 2, 300)
	if ld.Complete == uop.NotYet {
		t.Fatal("load never completed")
	}
	if l.StoreWrites() != 1 {
		t.Fatal("retired store never written")
	}
}

func TestLSQPortLimit(t *testing.T) {
	h := mem.MustNewHierarchy(mem.DefaultHierarchyConfig())
	q := iq.NewConventional(64)
	l := NewLSQ(32, h.L1D, h.EQ, q, 2, 8) // two read ports
	for i := int64(0); i < 5; i++ {
		ld := loadAt(i, uint64(0x6000+i*64))
		l.Add(ld)
		l.IssueAddress(ld, 0)
	}
	l.Tick(1)
	if l.LoadsIssued() != 2 {
		t.Fatalf("issued %d loads, want port limit 2", l.LoadsIssued())
	}
	l.Tick(2)
	if l.LoadsIssued() != 4 {
		t.Fatalf("issued %d after second cycle", l.LoadsIssued())
	}
}

func TestLSQMSHRRejectionRetries(t *testing.T) {
	cfg := mem.DefaultHierarchyConfig()
	cfg.L1D.MSHRs = 1
	h := mem.MustNewHierarchy(cfg)
	q := iq.NewConventional(64)
	l := NewLSQ(32, h.L1D, h.EQ, q, 8, 8)
	a := loadAt(0, 0x7000)
	b := loadAt(1, 0x8000) // different line: needs its own MSHR
	l.Add(a)
	l.Add(b)
	l.IssueAddress(a, 0)
	l.IssueAddress(b, 0)
	l.Tick(1)
	if l.LoadsIssued() != 1 || l.MSHRRejects() != 1 {
		t.Fatalf("issued %d rejects %d, want 1/1", l.LoadsIssued(), l.MSHRRejects())
	}
	// Drain; the rejected load retries and completes.
	for c := int64(1); c <= 400; c++ {
		h.Tick(c)
		l.Tick(c)
	}
	if b.Complete == uop.NotYet {
		t.Fatal("rejected load never completed")
	}
}

func TestLSQFullPanicsAndCapacity(t *testing.T) {
	l, _, _ := newTestLSQ(t, 1)
	l.Add(loadAt(0, 0x100))
	if !l.Full() {
		t.Fatal("should be full")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("add to full LSQ must panic")
		}
	}()
	l.Add(loadAt(1, 0x200))
}

func TestOverlap(t *testing.T) {
	cases := []struct {
		a1   uint64
		s1   uint8
		a2   uint64
		s2   uint8
		want bool
	}{
		{0x100, 8, 0x100, 8, true},
		{0x100, 8, 0x104, 8, true},
		{0x100, 8, 0x108, 8, false},
		{0x104, 4, 0x100, 8, true},
		{0x100, 4, 0x104, 4, false},
	}
	for _, c := range cases {
		if got := overlap(c.a1, c.s1, c.a2, c.s2); got != c.want {
			t.Errorf("overlap(%#x/%d, %#x/%d) = %v", c.a1, c.s1, c.a2, c.s2, got)
		}
	}
}
