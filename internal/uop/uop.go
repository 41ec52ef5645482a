// Package uop defines the dynamic instruction — a trace record plus the
// renamed dependence edges and timing state the pipeline and the
// instruction-queue designs share.
package uop

import (
	"fmt"

	"repro/internal/isa"
)

// NotYet marks a cycle field whose event has not happened.
const NotYet int64 = -1

// UOp is one in-flight dynamic instruction.
//
// Register renaming is represented directly as producer edges: Prod[j]
// points at the in-flight instruction that produces source operand j, or is
// nil if the value was already available at dispatch. This removes WAW/WAR
// hazards exactly as a physical register file would, without modelling
// value storage.
//
// Lifetime: the engine recycles uops. A uop is valid from fetch until
// ROB-capacity further instructions of its context have committed after
// its own commit; then the front end may reset it for a new instruction.
// Nothing may keep a uop past that point; DESIGN.md §16 ("Uop lifetime")
// shows that nothing in the machine does.
type UOp struct {
	// Seq is the dynamic program-order sequence number; smaller = older.
	// Under SMT the counter is shared, so Seq also provides a global age
	// order across threads.
	Seq int64
	// Thread is the hardware context the instruction belongs to (0 on a
	// single-threaded machine).
	Thread int
	// Inst is the static trace record.
	Inst isa.Inst

	// Prod holds the producing instruction for each source operand.
	Prod [2]*UOp

	// DispatchCycle is when the instruction entered the instruction queue.
	DispatchCycle int64
	// IssueCycle is when it left the IQ for a function unit (NotYet until
	// then). For memory operations this is the effective-address
	// calculation issue.
	IssueCycle int64
	// Complete is the cycle the result becomes available to consumers
	// (NotYet until known). For loads this is set when the data returns
	// from the memory system; for other classes at issue time
	// (issue + latency, fully bypassed).
	Complete int64
	// EADone is when the effective address is available to the LSQ
	// (memory operations only). The engine sets it through
	// pipeline.LSQ.IssueAddress, which is how the LSQ learns of it.
	EADone int64
	// MemKind records how the memory system serviced a load.
	MemKind int8
	// WaitHead is the head of the chain of queue consumers parked on
	// this instruction's result: the handle plus one of the most
	// recently parked consumer, 0 for none. It belongs to the waiter
	// table (iq.Scoreboard, iq.Waiters) of the one queue the instruction
	// was dispatched into; nothing else reads or writes it. It sits in
	// MemKind's padding so the struct stays 176 bytes.
	WaitHead int32
	// RejGen memoises an MSHR-file rejection: the cache's acceptance
	// generation (mem.Cache.AcceptGen) when this load's access was last
	// rejected. While the generation is unchanged the cache cannot
	// service the load any differently, so the LSQ repeats the rejection
	// without re-walking the tag array and MSHR file. Zero means no
	// memo; clones drop it (the cloned cache restarts its generations).
	RejGen uint64
	// FwdKey memoises a negative store-to-load forwarding check: the
	// LSQ's (coverage-epoch, stores-ahead) pair when this load last
	// searched the coverage index and found nothing. While the pair is
	// unchanged the index the load sees is unchanged, so the search is
	// not repeated. Zero means no memo; clones drop it.
	FwdKey uint64
	// Mispredicted marks a branch the front end predicted incorrectly
	// (direction or target).
	Mispredicted bool
	// Renamed guards against re-renaming when an in-order dispatch stall
	// retries the same instruction.
	Renamed bool

	// IQ is private scheduling state owned by the instruction-queue
	// implementation that dispatched this uop.
	IQ any
}

// Memory service kinds mirrored from the cache (kept as a plain int8 to
// avoid an import cycle); see internal/mem.Kind.
const (
	MemNone       int8 = -1
	MemHit        int8 = 0
	MemDelayedHit int8 = 1
	MemMiss       int8 = 2
)

// New builds a UOp with all timing fields unset.
func New(seq int64, in isa.Inst) *UOp {
	u := new(UOp)
	u.Reset(seq, in)
	return u
}

// Reset reinitialises u for a new dynamic instruction exactly as New
// builds one: every edge, memo, queue field and timing stamp cleared.
func (u *UOp) Reset(seq int64, in isa.Inst) {
	*u = UOp{
		Seq:        seq,
		Inst:       in,
		IssueCycle: NotYet,
		Complete:   NotYet,
		EADone:     NotYet,
		MemKind:    MemNone,
	}
}

// NumSources returns how many register source operands the instruction
// actually has (RegNone and the zero register do not count).
func (u *UOp) NumSources() int {
	n := 0
	for _, s := range [...]int{u.Inst.Src1, u.Inst.Src2} {
		if s != isa.RegNone && s != isa.RegZero {
			n++
		}
	}
	return n
}

// Src returns the architectural register of source operand j (0 or 1), or
// RegNone.
func (u *UOp) Src(j int) int {
	if j == 0 {
		return u.Inst.Src1
	}
	return u.Inst.Src2
}

// OperandReady reports whether source operand j's value is available for
// an instruction issuing at the given cycle.
func (u *UOp) OperandReady(j int, cycle int64) bool {
	p := u.Prod[j]
	if p == nil {
		return true
	}
	return p.Complete != NotYet && p.Complete <= cycle
}

// Ready reports whether both operands are available at the given cycle —
// the conventional-wakeup readiness test.
func (u *UOp) Ready(cycle int64) bool {
	return u.OperandReady(0, cycle) && u.OperandReady(1, cycle)
}

// IssueReady reports whether the instruction may leave the IQ at the
// given cycle. For stores only the address operand (the second source)
// gates the effective-address calculation; the data may arrive later and
// gates retirement instead (§5: the access lives in the LSQ).
func (u *UOp) IssueReady(cycle int64) bool {
	if u.IsStore() {
		return u.OperandReady(1, cycle)
	}
	return u.Ready(cycle)
}

// OperandReadyTime returns the cycle operand j became (or will become)
// available, or NotYet if its producer has not yet determined it.
// A nil producer reads as 0 (available since dispatch).
func (u *UOp) OperandReadyTime(j int) int64 {
	p := u.Prod[j]
	if p == nil {
		return 0
	}
	return p.Complete
}

// IsLoad reports whether the instruction is a load.
func (u *UOp) IsLoad() bool { return u.Inst.Class == isa.Load }

// IsStore reports whether the instruction is a store.
func (u *UOp) IsStore() bool { return u.Inst.Class == isa.Store }

// IsBranch reports whether the instruction is a branch.
func (u *UOp) IsBranch() bool { return u.Inst.Class == isa.Branch }

// Latency returns the function-unit latency of the instruction (the EA
// calculation for memory operations).
func (u *UOp) Latency() int { return u.Inst.Class.Latency() }

// String renders the uop for debugging.
func (u *UOp) String() string {
	return fmt.Sprintf("#%d %s [disp %d iss %d cmpl %d]",
		u.Seq, u.Inst.String(), u.DispatchCycle, u.IssueCycle, u.Complete)
}
