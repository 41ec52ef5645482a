package pipeline

import (
	"repro/internal/bpred"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/uop"
)

// FrontEndConfig describes the fetch/decode pipeline of Table 1.
type FrontEndConfig struct {
	FetchWidth       int // instructions per cycle (8)
	MaxBranches      int // branch predictions per cycle (3)
	FetchToDecode    int // cycles (10)
	DecodeToDispatch int // cycles (5)
	// ExtraDispatch is the additional dispatch latency charged to the
	// segmented and prescheduling IQ designs (§5).
	ExtraDispatch int
	// BufferCap bounds the decoupling queue between fetch and dispatch.
	BufferCap int
}

// DefaultFrontEndConfig returns Table 1's front end.
func DefaultFrontEndConfig() FrontEndConfig {
	return FrontEndConfig{
		FetchWidth:       8,
		MaxBranches:      3,
		FetchToDecode:    10,
		DecodeToDispatch: 5,
		BufferCap:        192,
	}
}

type fetched struct {
	u       *uop.UOp
	readyAt int64
}

// FrontEnd models instruction fetch through dispatch delivery: trace-driven
// fetch with branch prediction and BTB lookup, an instruction-cache port,
// and the 15-cycle front-end pipeline as a delay queue. On a branch
// misprediction, fetch stalls until the branch executes — the standard
// trace-driven redirect model (wrong-path instructions are not fetched);
// the refetched stream then pays the full front-end refill latency.
type FrontEnd struct {
	cfg    FrontEndConfig
	stream trace.Stream
	bp     *bpred.Predictor
	btb    *bpred.BTB
	icache *mem.Cache

	buf        ring[fetched]
	pending    isa.Inst // pushed-back instruction (fetch-group boundary)
	hasPending bool
	seq        int64
	done       bool

	// free holds the context's committed uops in commit order (Release).
	// Fetch reuses the oldest once more than reuseDist uops were released
	// after it; see SetReuse for why that distance is safe.
	free      ring[*uop.UOp]
	reuseDist int
	onReuse   func(*uop.UOp)

	stalledOn   *uop.UOp // mispredicted branch being waited on
	icacheWait  bool
	currentLine uint64
	haveLine    bool

	fetchedCount   uint64
	branches       uint64
	mispredicts    uint64
	btbMisses      uint64
	icacheStallCyc uint64
	branchStallCyc uint64
}

// NewFrontEnd builds a front end over the given trace.
func NewFrontEnd(cfg FrontEndConfig, s trace.Stream, bp *bpred.Predictor, btb *bpred.BTB, icache *mem.Cache) *FrontEnd {
	return &FrontEnd{cfg: cfg, stream: s, bp: bp, btb: btb, icache: icache, reuseDist: -1}
}

// feOpLineDone is the front end's only mem.Handler op: the awaited
// instruction line arrived.
const feOpLineDone uint8 = 0

// HandleEvent implements mem.Handler: clear the instruction-cache wait.
func (f *FrontEnd) HandleEvent(uint8, int64, mem.Kind, any) { f.icacheWait = false }

// Depth returns the total front-end latency in cycles.
func (f *FrontEnd) Depth() int {
	return f.cfg.FetchToDecode + f.cfg.DecodeToDispatch + f.cfg.ExtraDispatch
}

// Done reports whether the trace is exhausted and the buffer drained.
func (f *FrontEnd) Done() bool { return f.done && f.buf.len() == 0 }

// Fetch runs one fetch cycle: up to FetchWidth instructions, at most
// MaxBranches branches, ending at a taken branch, subject to the
// instruction cache and any unresolved misprediction.
func (f *FrontEnd) Fetch(cycle int64) {
	if f.done {
		return
	}
	if f.stalledOn != nil {
		if f.stalledOn.Complete == uop.NotYet || f.stalledOn.Complete > cycle {
			f.branchStallCyc++
			return
		}
		f.stalledOn = nil
	}
	if f.icacheWait {
		f.icacheStallCyc++
		return
	}
	branches := 0
	for n := 0; n < f.cfg.FetchWidth; n++ {
		if f.buf.len() >= f.cfg.BufferCap {
			return
		}
		var in isa.Inst
		if f.hasPending {
			in = f.pending
			f.hasPending = false
		} else {
			var ok bool
			in, ok = f.stream.Next()
			if !ok {
				f.done = true
				return
			}
		}
		// Table 1: at most three branch predictions per cycle. A fourth
		// branch ends the group and is refetched next cycle.
		if in.Class == isa.Branch && branches >= f.cfg.MaxBranches {
			f.pending, f.hasPending = in, true
			return
		}

		// Instruction cache: moving to a new line costs a lookup; a miss
		// stalls fetch until the fill (fetch resumes with this
		// instruction already buffered — it was delivered by the fill).
		line := in.PC &^ 63
		newLine := !f.haveLine || line != f.currentLine
		stallForLine := false
		if newLine {
			kind := f.icache.Probe(in.PC)
			if f.icache.AccessRef(cycle, in.PC, false, mem.Ref{H: f, Op: feOpLineDone}) {
				f.currentLine = line
				f.haveLine = true
				if kind != mem.KindHit {
					f.icacheWait = true
					stallForLine = true
				}
			} else {
				// Instruction MSHRs full: end the group; the line lookup
				// retries next cycle.
				f.haveLine = false
				stallForLine = true
			}
		}

		u := f.newUOp(in)
		f.seq++
		f.fetchedCount++

		endGroup := false
		if in.Class == isa.Branch {
			branches++
			f.branches++
			predTaken := f.bp.Predict(in.PC)
			target, btbHit := f.btb.Lookup(in.PC)
			mispred := predTaken != in.Taken
			if !mispred && in.Taken && (!btbHit || target != in.Target) {
				mispred = true
				f.btbMisses++
			}
			f.bp.Update(in.PC, in.Taken)
			if in.Taken {
				f.btb.Insert(in.PC, in.Target)
			}
			if mispred {
				u.Mispredicted = true
				f.mispredicts++
				f.stalledOn = u
				endGroup = true
			}
			if in.Taken {
				endGroup = true // one taken branch per fetch group
			}
		}

		f.buf.push(fetched{u: u, readyAt: cycle + int64(f.Depth())})
		if endGroup || stallForLine || f.stalledOn != nil {
			return
		}
	}
}

// Train updates the branch predictor and BTB with an instruction without
// fetching it — workload warm-up.
func (f *FrontEnd) Train(in isa.Inst) {
	if in.Class != isa.Branch {
		return
	}
	f.bp.Update(in.PC, in.Taken)
	if in.Taken {
		f.btb.Insert(in.PC, in.Target)
	}
}

// NextReady returns the oldest instruction that has traversed the front
// end by the given cycle, or nil.
func (f *FrontEnd) NextReady(cycle int64) *uop.UOp {
	if f.buf.len() == 0 || f.buf.at(0).readyAt > cycle {
		return nil
	}
	return f.buf.at(0).u
}

// Pop consumes the instruction returned by NextReady.
func (f *FrontEnd) Pop() { f.buf.pop() }

// BufLen returns the number of buffered instructions.
func (f *FrontEnd) BufLen() int { return f.buf.len() }

// SetReuse makes fetch reuse the uops handed back by Release once more
// than distance further uops have been released after them; a negative
// distance never reuses (Release drops its argument). onReuse, if
// non-nil, sees each uop just before it is reset for reuse — a checking
// hook for tests.
//
// The engine passes the context's ROB capacity. That is safe because
// nothing refers to a committed uop for longer: a Prod edge to p is
// linked only while p's completion is unknown or in the future, so every
// consumer of p was dispatched before p committed and sat in p's ROB at
// that moment, and it commits within ROB-capacity further commits. The
// queue designs' own references (register and availability tables,
// waiter chains, scoreboards) are dropped by writeback, before commit.
func (f *FrontEnd) SetReuse(distance int, onReuse func(*uop.UOp)) {
	f.reuseDist, f.onReuse = distance, onReuse
}

// Release hands back a committed uop for reuse (see SetReuse). Uops are
// released in commit order.
func (f *FrontEnd) Release(u *uop.UOp) {
	if f.reuseDist >= 0 {
		f.free.push(u)
	}
}

// newUOp returns a fresh uop for in: a recycled one when the oldest
// released uop is far enough behind, a new allocation otherwise.
func (f *FrontEnd) newUOp(in isa.Inst) *uop.UOp {
	if f.reuseDist < 0 || f.free.len() <= f.reuseDist {
		return uop.New(f.seq, in)
	}
	u := f.free.pop()
	if f.onReuse != nil {
		f.onReuse(u)
	}
	u.Reset(f.seq, in)
	return u
}

// Refers reports whether the front end still refers to u: a buffered
// slot or the branch fetch is stalled on (a checking aid for uop reuse).
func (f *FrontEnd) Refers(u *uop.UOp) bool {
	if f.stalledOn == u {
		return true
	}
	for i := 0; i < f.buf.len(); i++ {
		if f.buf.at(i).u == u {
			return true
		}
	}
	return false
}

// Fetched returns the number of instructions fetched.
func (f *FrontEnd) Fetched() uint64 { return f.fetchedCount }

// Branches returns the number of branches fetched.
func (f *FrontEnd) Branches() uint64 { return f.branches }

// Mispredicts returns the number of mispredicted branches (direction or
// target).
func (f *FrontEnd) Mispredicts() uint64 { return f.mispredicts }

// BTBMisses returns right-direction taken branches whose target was
// unknown or wrong.
func (f *FrontEnd) BTBMisses() uint64 { return f.btbMisses }

// BranchStallCycles returns fetch cycles lost to unresolved
// mispredictions.
func (f *FrontEnd) BranchStallCycles() uint64 { return f.branchStallCyc }

// ICacheStallCycles returns fetch cycles lost to instruction-cache
// misses.
func (f *FrontEnd) ICacheStallCycles() uint64 { return f.icacheStallCyc }
