// Package distiq implements the "distance" instruction queue of Canal &
// González — the other quasi-static dependence-based design in the
// paper's related work (§2), dual to Michaud & Seznec's prescheduling.
//
// Where prescheduling places the fully associative buffer *after* the
// scheduling array (instructions drain into it and may camp there when a
// latency was mispredicted), the distance scheme places it *before*: an
// instruction whose ready time cannot be predicted at dispatch — one
// with an operand on an outstanding load — is held in a small wait
// buffer until the ready time becomes known, and only then inserted into
// the scheduling array. Instructions are thus guaranteed ready when they
// reach the array's oldest row, and issue directly from it.
//
// The structural cost is the dual of prescheduling's: dispatch stalls
// when the wait buffer fills behind a long miss, serializing everything
// behind unpredictable-latency instructions — again the inflexibility the
// segmented design's chains avoid.
package distiq

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/iq"
	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/uop"
)

// Config describes a distance-scheme IQ.
type Config struct {
	// Lines is the number of scheduling-array rows.
	Lines int
	// LineWidth is the instruction slots per row.
	LineWidth int
	// WaitBuffer is the size of the fully associative buffer holding
	// instructions with unpredictable ready times.
	WaitBuffer int
	// PredictedLoadLatency is the assumed load-to-use latency.
	PredictedLoadLatency int
	// Threads replicates the availability table per hardware context.
	Threads int
}

// DefaultConfig mirrors the prescheduling geometry for a given total
// capacity: a 32-entry wait buffer plus 12-wide rows.
func DefaultConfig(totalSlots int) Config {
	lines := (totalSlots - 32) / 12
	if lines < 1 {
		lines = 1
	}
	return Config{Lines: lines, LineWidth: 12, WaitBuffer: 32, PredictedLoadLatency: 4}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Lines < 1 || c.LineWidth < 1 || c.WaitBuffer < 1 {
		return fmt.Errorf("distiq: non-positive geometry %+v", c)
	}
	if c.PredictedLoadLatency < 1 {
		return fmt.Errorf("distiq: predicted load latency %d < 1", c.PredictedLoadLatency)
	}
	return nil
}

type availEntry struct {
	valid    bool
	producer *uop.UOp
	at       int64
	// unknown marks a value whose arrival time is unpredictable (the
	// producer is, or depends on, an outstanding load).
	unknown bool
}

// DistIQ implements iq.Queue.
type DistIQ struct {
	cfg   Config
	lines [][]*uop.UOp
	head  int
	base  int64
	wait  []*uop.UOp // fully associative wait buffer (program order)
	total int

	outScratch []*uop.UOp // backs Issue's result; reused every cycle

	avail []availEntry

	// Event-driven wait-buffer release. Each wait entry holds a ticket
	// (its handle in the waiter chains and the recheck bitmap). An entry
	// is either parked on the producer of its first unpredictable operand
	// — nothing can make it releasable before that producer's completion
	// time resolves, since table rows only degrade (a younger dispatch can
	// overwrite a row, never restore one) — or flagged in recheckW for a
	// maxReady recomputation at the next BeginCycle. Entries whose ready
	// time is known but whose target rows are full keep their recheck bit
	// and retry every cycle, exactly like the old full rescan.
	waitH      []int32    // per wait entry: its ticket
	freeT      []int32    // ticket freelist (LIFO)
	recheckW   []uint64   // by ticket: re-evaluate at next BeginCycle
	wt         iq.Waiters // by ticket: parked on a producer
	unresolved []*uop.UOp // issued non-loads whose Complete is still pending (loads: NotifyLoadComplete)
	wakeBuf    []int32    // scratch for WakeAll

	stDispatched stats.Counter
	stIssued     stats.Counter
	stStallFull  stats.Counter
	stWaited     stats.Counter
	stWaitOcc    stats.Mean

	dem iq.Watermark // occupancy high-watermark, for prefix sharing
}

// New builds a distance-scheme IQ.
func New(cfg Config) (*DistIQ, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	threads := cfg.Threads
	if threads < 1 {
		threads = 1
	}
	q := &DistIQ{
		cfg:      cfg,
		lines:    make([][]*uop.UOp, cfg.Lines),
		avail:    make([]availEntry, threads*isa.NumRegs),
		freeT:    make([]int32, cfg.WaitBuffer),
		recheckW: bitvec.New(cfg.WaitBuffer),
	}
	for i := range q.freeT {
		q.freeT[i] = int32(cfg.WaitBuffer - 1 - i)
	}
	q.wt.Grow(cfg.WaitBuffer)
	return q, nil
}

// MustNew is New for known-good configurations.
func MustNew(cfg Config) *DistIQ {
	q, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return q
}

// Name implements iq.Queue.
func (q *DistIQ) Name() string { return "distance" }

// Capacity implements iq.Queue.
func (q *DistIQ) Capacity() int { return q.cfg.WaitBuffer + q.cfg.Lines*q.cfg.LineWidth }

// Len implements iq.Queue.
func (q *DistIQ) Len() int { return q.total }

// ExtraDispatchStages implements iq.Queue: one extra cycle, like the
// other quasi-static designs (§5).
func (q *DistIQ) ExtraDispatchStages() int { return 1 }

func (q *DistIQ) availRow(thread, reg int) *availEntry {
	return &q.avail[thread*isa.NumRegs+reg]
}

// readiness classifies operand j of u at the given cycle: the predicted
// ready cycle, and whether it is (still) unpredictable.
func (q *DistIQ) readiness(u *uop.UOp, j int, cycle int64) (int64, bool) {
	src := u.Src(j)
	if src == isa.RegNone || src == isa.RegZero {
		return cycle, false
	}
	if p := u.Prod[j]; p != nil {
		if p.Complete != uop.NotYet {
			return p.Complete, false // resolved: exact
		}
	} else {
		return cycle, false
	}
	e := q.availRow(u.Thread, src)
	if e.valid && e.producer == u.Prod[j] {
		return e.at, e.unknown
	}
	// No table knowledge of an in-flight producer: unpredictable.
	return cycle, true
}

// wake flags every wait-buffer entry parked on p for re-evaluation at
// the next BeginCycle.
func (q *DistIQ) wake(p *uop.UOp) {
	q.wakeBuf = q.wt.WakeAll(p, q.wakeBuf[:0])
	for _, h := range q.wakeBuf {
		bitvec.Set(q.recheckW, int(h))
	}
}

// resolve drains issued producers whose completion times the pipeline has
// since stamped (the engine sets Complete right after Issue returns),
// waking their wait-buffer consumers.
func (q *DistIQ) resolve() {
	kept := q.unresolved[:0]
	for _, u := range q.unresolved {
		if u.Complete == uop.NotYet {
			kept = append(kept, u)
			continue
		}
		q.wake(u)
	}
	for i := len(kept); i < len(q.unresolved); i++ {
		q.unresolved[i] = nil
	}
	q.unresolved = kept
}

// parkOn parks ticket h on the producer of u's first unpredictable
// operand. maxReady returning unknown guarantees one exists (an operand
// is only unpredictable while its producer's completion is unresolved).
func (q *DistIQ) parkOn(h int32, u *uop.UOp, cycle int64) {
	for j := 0; j < 2; j++ {
		if u.IsStore() && j == 0 {
			continue
		}
		if _, uj := q.readiness(u, j, cycle); uj {
			q.wt.Park(h, u.Prod[j])
			return
		}
	}
	// Unreachable under the readiness invariants; keep the recheck bit so
	// the entry retries every cycle rather than stranding.
	bitvec.Set(q.recheckW, int(h))
}

// BeginCycle implements iq.Queue: release wait-buffer instructions whose
// ready times have become known, then drain the due row.
func (q *DistIQ) BeginCycle(cycle int64) {
	q.resolve()
	// Wait buffer → scheduling array, oldest first, as ready times
	// resolve. Entries parked in the waiter chains are provably still
	// unpredictable and skipped; flagged entries recompute.
	kept := q.wait[:0]
	keptH := q.waitH[:0]
	for i, u := range q.wait {
		h := q.waitH[i]
		if bitvec.Test(q.recheckW, int(h)) {
			r, unknown := q.maxReady(u, cycle)
			if !unknown && q.insertArray(u, r, cycle) {
				bitvec.Clear(q.recheckW, int(h))
				q.freeT = append(q.freeT, h)
				continue
			}
			if unknown {
				bitvec.Clear(q.recheckW, int(h))
				q.parkOn(h, u, cycle)
			}
			// Known but every row from the target onward is full: the bit
			// stays set and the insert retries next cycle.
		}
		kept = append(kept, u)
		keptH = append(keptH, h)
	}
	for i := len(kept); i < len(q.wait); i++ {
		q.wait[i] = nil
	}
	q.wait = kept
	q.waitH = keptH
	q.stWaitOcc.Observe(float64(len(q.wait)))

	// Advance the array one row per cycle once due. Rows are issued from
	// directly; an undrained row (issue-width pressure) holds the array.
	if q.base <= cycle {
		if row := q.lines[q.head]; len(row) > 0 {
			ready := false
			for _, u := range row {
				if u.IssueReady(cycle) {
					ready = true
					break
				}
			}
			if !ready {
				// Every head-row instruction is a straggler (a latency
				// was optimistic, or row spill inverted producer and
				// consumer): reschedule them so the array can advance.
				q.relocateStragglers(cycle)
			}
		}
		if len(q.lines[q.head]) == 0 {
			q.lines[q.head] = nil
			q.head = (q.head + 1) % q.cfg.Lines
			q.base++
		}
	}
}

// relocateStragglers moves unready head-row instructions to later rows at
// their re-predicted ready offsets. When the array is completely full the
// straggler swaps places with the globally oldest array instruction —
// the one whose completion unblocks the machine — guaranteeing forward
// progress even under order inversion.
func (q *DistIQ) relocateStragglers(cycle int64) {
	row := q.lines[q.head]
	q.lines[q.head] = nil
	for _, u := range row {
		r, _ := q.maxReady(u, cycle)
		d := r - cycle
		if d < 1 {
			d = 1 // never back into the head row
		}
		idx := int(d)
		if idx >= q.cfg.Lines {
			idx = q.cfg.Lines - 1
		}
		placed := false
		for k := idx; k < q.cfg.Lines && !placed; k++ {
			slot := (q.head + k) % q.cfg.Lines
			if slot != q.head && len(q.lines[slot]) < q.cfg.LineWidth {
				q.lines[slot] = append(q.lines[slot], u)
				placed = true
			}
		}
		for k := idx - 1; k >= 1 && !placed; k-- {
			slot := (q.head + k) % q.cfg.Lines
			if len(q.lines[slot]) < q.cfg.LineWidth {
				q.lines[slot] = append(q.lines[slot], u)
				placed = true
			}
		}
		if !placed {
			// Swap with the globally oldest instruction outside the head
			// row.
			oldRow, oldIdx := -1, -1
			var oldest *uop.UOp
			for rr := 0; rr < q.cfg.Lines; rr++ {
				if rr == q.head {
					continue
				}
				for i, x := range q.lines[rr] {
					if oldest == nil || x.Seq < oldest.Seq {
						oldest, oldRow, oldIdx = x, rr, i
					}
				}
			}
			if oldest == nil || oldest.Seq > u.Seq {
				// u is itself the oldest (or alone): keep it in the head
				// row and wait for its operands.
				q.lines[q.head] = append(q.lines[q.head], u)
				continue
			}
			q.lines[oldRow] = append(q.lines[oldRow][:oldIdx], q.lines[oldRow][oldIdx+1:]...)
			q.lines[q.head] = append(q.lines[q.head], oldest)
			q.lines[oldRow] = append(q.lines[oldRow], u)
		}
	}
}

func (q *DistIQ) maxReady(u *uop.UOp, cycle int64) (int64, bool) {
	r := cycle
	unknown := false
	for j := 0; j < 2; j++ {
		if u.IsStore() && j == 0 {
			continue
		}
		rj, uj := q.readiness(u, j, cycle)
		if uj {
			unknown = true
		}
		if rj > r {
			r = rj
		}
	}
	return r, unknown
}

// insertArray places u into the row for predicted-ready cycle r,
// spilling to later rows; returns false when no row has space.
func (q *DistIQ) insertArray(u *uop.UOp, r, cycle int64) bool {
	d := r - cycle
	if d < 0 {
		d = 0
	}
	idx := int(d)
	if idx >= q.cfg.Lines {
		idx = q.cfg.Lines - 1
	}
	for k := idx; k < q.cfg.Lines; k++ {
		slot := (q.head + k) % q.cfg.Lines
		if len(q.lines[slot]) < q.cfg.LineWidth {
			q.lines[slot] = append(q.lines[slot], u)
			return true
		}
	}
	return false
}

// Issue implements iq.Queue: directly from the oldest due row (its
// instructions are ready by construction, up to resource conflicts and
// the conservatism of "unknown" classification). The returned slice is
// owned by the queue and valid until the next call.
func (q *DistIQ) Issue(cycle int64, max int, tryIssue func(*uop.UOp) bool) []*uop.UOp {
	if q.base > cycle {
		return nil
	}
	row := q.lines[q.head]
	out := q.outScratch[:0]
	kept := row[:0]
	for _, u := range row {
		if len(out) < max && u.DispatchCycle < cycle && u.IssueReady(cycle) && tryIssue(u) {
			u.IssueCycle = cycle
			out = append(out, u)
			if u.Inst.HasDest() && !u.IsLoad() {
				q.unresolved = append(q.unresolved, u)
			}
			continue
		}
		kept = append(kept, u)
	}
	for i := len(kept); i < len(row); i++ {
		row[i] = nil
	}
	q.lines[q.head] = kept
	q.total -= len(out)
	q.outScratch = out
	q.stIssued.Add(uint64(len(out)))
	return out
}

// Dispatch implements iq.Queue: predictable instructions go straight into
// the scheduling array; unpredictable ones wait in the buffer. Stalls
// when the needed structure is full.
func (q *DistIQ) Dispatch(cycle int64, u *uop.UOp) bool {
	r, unknown := q.maxReady(u, cycle)
	if unknown {
		if len(q.wait) >= q.cfg.WaitBuffer {
			q.stStallFull.Inc()
			return false
		}
		h := q.freeT[len(q.freeT)-1]
		q.freeT = q.freeT[:len(q.freeT)-1]
		q.wait = append(q.wait, u)
		q.waitH = append(q.waitH, h)
		q.parkOn(h, u, cycle)
		q.stWaited.Inc()
	} else if !q.insertArray(u, r, cycle) {
		q.stStallFull.Inc()
		return false
	}
	u.DispatchCycle = cycle
	q.total++
	q.stDispatched.Inc()
	q.dem.Observe(cycle, int64(q.total))

	if u.Inst.HasDest() {
		lat := int64(u.Latency())
		isLoad := u.IsLoad()
		if isLoad {
			lat = int64(q.cfg.PredictedLoadLatency)
		}
		d := r - cycle
		if d < 0 {
			d = 0
		}
		*q.availRow(u.Thread, u.Inst.Dest) = availEntry{
			valid:    true,
			producer: u,
			at:       cycle + d + 1 + lat,
			// A load's completion is unpredictable; so is anything
			// waiting in the buffer.
			unknown: isLoad || unknown,
		}
	}
	return true
}

// NotifyLoadMiss implements iq.Queue (no-op; unpredictability was already
// assumed at dispatch).
func (q *DistIQ) NotifyLoadMiss(cycle int64, u *uop.UOp) {}

// NotifyLoadComplete implements iq.Queue: the load's value now has an
// exact time; its table row resolves so waiters can be released.
func (q *DistIQ) NotifyLoadComplete(cycle int64, u *uop.UOp) {
	if u == nil || !u.Inst.HasDest() {
		return
	}
	q.wake(u)
	e := q.availRow(u.Thread, u.Inst.Dest)
	if e.valid && e.producer == u {
		e.at = u.Complete
		e.unknown = false
	}
}

// Writeback implements iq.Queue: release the availability row and wake
// wait-buffer consumers of the now-resolved producer.
func (q *DistIQ) Writeback(cycle int64, u *uop.UOp) {
	if !u.Inst.HasDest() {
		return
	}
	q.wake(u)
	e := q.availRow(u.Thread, u.Inst.Dest)
	if e.valid && e.producer == u {
		e.valid = false
		e.producer = nil
	}
}

// EndCycle implements iq.Queue (no deadlock: the wait buffer drains as
// loads complete, and rows drain by readiness).
func (q *DistIQ) EndCycle(cycle int64, machineActive bool) {}

// CollectStats implements iq.Queue.
func (q *DistIQ) CollectStats(s *stats.Set) {
	s.Put("iq_dispatched", float64(q.stDispatched.Value()))
	s.Put("iq_issued", float64(q.stIssued.Value()))
	s.Put("iq_stall_full", float64(q.stStallFull.Value()))
	s.Put("dist_waited", float64(q.stWaited.Value()))
	s.Put("dist_wait_occupancy_avg", q.stWaitOcc.Value())
}

var _ iq.Queue = (*DistIQ)(nil)
