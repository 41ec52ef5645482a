package uop

import (
	"strings"
	"testing"
	"unsafe"

	"repro/internal/isa"
)

func TestNewDefaults(t *testing.T) {
	u := New(7, isa.Inst{Class: isa.IntAlu, Src1: 1, Src2: 2, Dest: 3})
	if u.Seq != 7 {
		t.Error("seq")
	}
	if u.IssueCycle != NotYet || u.Complete != NotYet || u.EADone != NotYet {
		t.Error("timing fields should start unset")
	}
	if u.MemKind != MemNone {
		t.Error("mem kind should start none")
	}
}

func TestNumSources(t *testing.T) {
	cases := []struct {
		src1, src2 int
		want       int
	}{
		{1, 2, 2},
		{1, isa.RegNone, 1},
		{isa.RegNone, isa.RegNone, 0},
		{isa.RegZero, 5, 1},
		{isa.RegZero, isa.RegZero, 0},
	}
	for _, c := range cases {
		u := New(0, isa.Inst{Class: isa.IntAlu, Src1: c.src1, Src2: c.src2})
		if got := u.NumSources(); got != c.want {
			t.Errorf("NumSources(%d,%d) = %d, want %d", c.src1, c.src2, got, c.want)
		}
	}
}

func TestSrc(t *testing.T) {
	u := New(0, isa.Inst{Class: isa.IntAlu, Src1: 3, Src2: 9})
	if u.Src(0) != 3 || u.Src(1) != 9 {
		t.Error("Src mapping wrong")
	}
}

func TestReadiness(t *testing.T) {
	prod := New(1, isa.Inst{Class: isa.IntAlu, Src1: isa.RegNone, Src2: isa.RegNone, Dest: 1})
	cons := New(2, isa.Inst{Class: isa.IntAlu, Src1: 1, Src2: 2, Dest: 3})
	cons.Prod[0] = prod

	// Producer not complete: operand 0 unready, operand 1 (nil prod) ready.
	if cons.OperandReady(0, 100) {
		t.Error("operand with incomplete producer should not be ready")
	}
	if !cons.OperandReady(1, 0) {
		t.Error("nil-producer operand should always be ready")
	}
	if cons.Ready(100) {
		t.Error("Ready should require both operands")
	}
	if cons.OperandReadyTime(0) != NotYet {
		t.Error("unknown ready time should be NotYet")
	}
	if cons.OperandReadyTime(1) != 0 {
		t.Error("nil producer ready time should be 0")
	}

	prod.Complete = 10
	if cons.OperandReady(0, 9) {
		t.Error("ready before completion cycle")
	}
	if !cons.OperandReady(0, 10) || !cons.Ready(10) {
		t.Error("should be ready at completion cycle")
	}
	if cons.OperandReadyTime(0) != 10 {
		t.Error("ready time should be 10")
	}
}

func TestClassPredicatesAndLatency(t *testing.T) {
	ld := New(0, isa.Inst{Class: isa.Load, Src1: 1, Src2: isa.RegNone, Dest: 2, Size: 8})
	st := New(0, isa.Inst{Class: isa.Store, Src1: 1, Src2: 2, Size: 8})
	br := New(0, isa.Inst{Class: isa.Branch, Src1: 1, Src2: isa.RegNone})
	mul := New(0, isa.Inst{Class: isa.IntMul, Src1: 1, Src2: 2, Dest: 3})
	if !ld.IsLoad() || ld.IsStore() || ld.IsBranch() {
		t.Error("load predicates")
	}
	if !st.IsStore() || !br.IsBranch() {
		t.Error("store/branch predicates")
	}
	if ld.Latency() != 1 {
		t.Error("load EA latency should be 1")
	}
	if mul.Latency() != 3 {
		t.Error("imul latency should be 3")
	}
}

func TestString(t *testing.T) {
	u := New(42, isa.Inst{PC: 0x40, Class: isa.IntAlu, Src1: 1, Src2: 2, Dest: 3})
	if s := u.String(); !strings.Contains(s, "#42") {
		t.Errorf("String = %q", s)
	}
}

// The waiter-chain head sits in MemKind's padding; a field appended
// instead would push UOp from the 176-byte into the 192-byte size class.
func TestUOpSize(t *testing.T) {
	if n := unsafe.Sizeof(UOp{}); n > 176 {
		t.Fatalf("unsafe.Sizeof(UOp{}) = %d, want at most 176", n)
	}
}

// TestResetMatchesNew pins the reuse contract: a recycled uop carries
// nothing of its previous instruction.
func TestResetMatchesNew(t *testing.T) {
	in := isa.Inst{Class: isa.Load, Src1: 1, Src2: 2, Dest: 3, Addr: 64}
	p := New(1, in)
	u := New(2, isa.Inst{Class: isa.Store, Src1: 4, Src2: 5})
	u.Thread, u.Prod = 1, [2]*UOp{p, p}
	u.DispatchCycle, u.IssueCycle, u.Complete, u.EADone = 3, 4, 5, 6
	u.MemKind, u.WaitHead, u.RejGen, u.FwdKey = MemMiss, 7, 8, 9
	u.Mispredicted, u.Renamed, u.IQ = true, true, 10
	u.Reset(11, in)
	if want := New(11, in); *u != *want {
		t.Errorf("reset uop %+v, want %+v", *u, *want)
	}
}
