// Package presched implements the prescheduling instruction queue of
// Michaud & Seznec, the quasi-static dependence-based baseline the paper
// compares against (§2, §6.3).
//
// Instructions are placed at dispatch into a scheduling array whose rows
// correspond to future cycles, using latencies predicted from a register
// availability table (loads are assumed to hit the L1). Each cycle the
// oldest row drains into a small conventional issue buffer; instructions
// issue only from that buffer. A mispredicted load latency leaves the
// load's dependents camping in the issue buffer long before they are
// ready — the inflexibility the segmented IQ's dynamic chains remove.
package presched

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/bitvec"
	"repro/internal/iq"
	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/uop"
)

// Config describes a prescheduling IQ.
type Config struct {
	// Lines is the number of scheduling-array rows.
	Lines int
	// LineWidth is the instruction slots per row (12, per the authors'
	// recommended configuration).
	LineWidth int
	// IssueBuffer is the size of the fully associative issue buffer (32).
	IssueBuffer int
	// PredictedLoadLatency is the assumed load-to-use latency (EA + L1
	// hit).
	PredictedLoadLatency int
	// Threads is the number of hardware contexts sharing the queue; the
	// availability table is replicated per context. 0 means 1.
	Threads int
}

// DefaultConfig returns the configuration the paper simulates for a given
// total capacity: a 32-entry issue buffer plus 12-wide rows.
func DefaultConfig(totalSlots int) Config {
	lines := (totalSlots - 32) / 12
	if lines < 1 {
		lines = 1
	}
	return Config{Lines: lines, LineWidth: 12, IssueBuffer: 32, PredictedLoadLatency: 4}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Lines < 1 || c.LineWidth < 1 || c.IssueBuffer < 1 {
		return fmt.Errorf("presched: non-positive geometry %+v", c)
	}
	if c.PredictedLoadLatency < 1 {
		return fmt.Errorf("presched: predicted load latency %d < 1", c.PredictedLoadLatency)
	}
	return nil
}

type availEntry struct {
	valid    bool
	producer *uop.UOp
	at       int64 // predicted availability cycle
}

// PreschedIQ implements iq.Queue.
//
// Only the issue buffer participates in wakeup; its readiness state is a
// ticket-indexed bitmap maintained event-driven by an iq.Scoreboard.
// Each buffer entry holds a ticket from a small freelist; the buffer scan
// in Issue and the camper pick in recycleCampers test one bit instead of
// re-evaluating the entry's operands, and the unreadiness statistic is a
// popcount.
//
// Two per-row indexes keep the scheduling array's searches off its
// contents: rowMin finds the oldest array instruction without walking
// every row, and openW lets placement skip full rows without probing
// them.
type PreschedIQ struct {
	cfg    Config
	lines  [][]*uop.UOp // ring buffer of rows
	rowMin []int64      // per physical row: smallest Seq in it (math.MaxInt64: empty)
	openW  []uint64     // per physical row: fewer than LineWidth entries
	head   int          // index of the oldest row
	base   int64        // predicted-ready cycle of the oldest row
	buf    []*uop.UOp   // issue buffer
	bufAt  []int64      // cycle each buffer entry arrived (parallel to buf)
	bufH   []int32      // scoreboard ticket of each entry (parallel to buf)
	total  int
	now    int64 // current cycle; clocks wakeup deliveries

	tslot  []*uop.UOp // ticket -> buffer instruction
	free   []int32    // free tickets (LIFO)
	readyW []uint64   // ticket-indexed: in buffer and issue-ready
	storeW []uint64   // ticket-indexed: buffered stores (Ready-stat correction)
	sb     iq.Scoreboard

	// unresolved holds issued non-load producers whose completion time
	// was still unknown when they left the queue; the next cycle re-checks
	// them (the execution core stamps Complete right after Issue returns).
	// A load's completion arrives with NotifyLoadComplete.
	unresolved []*uop.UOp

	outScratch []*uop.UOp // backs Issue's result; reused every cycle

	avail []availEntry // threads * NumRegs

	dem iq.Watermark // occupancy high-watermark, for prefix sharing

	stDispatched stats.Counter
	stIssued     stats.Counter
	stStallFull  stats.Counter
	stRecycled   stats.Counter
	stBufOcc     stats.Mean
	stBufUnready stats.Mean
	stArrayOcc   stats.Mean
}

// New builds a prescheduling IQ.
func New(cfg Config) (*PreschedIQ, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	threads := cfg.Threads
	if threads < 1 {
		threads = 1
	}
	q := &PreschedIQ{
		cfg:    cfg,
		lines:  make([][]*uop.UOp, cfg.Lines),
		rowMin: make([]int64, cfg.Lines),
		openW:  bitvec.New(cfg.Lines),
		avail:  make([]availEntry, threads*isa.NumRegs),
		base:   0,
		tslot:  make([]*uop.UOp, cfg.IssueBuffer),
		free:   make([]int32, cfg.IssueBuffer),
		readyW: bitvec.New(cfg.IssueBuffer),
		storeW: bitvec.New(cfg.IssueBuffer),
	}
	for i := range q.free {
		q.free[i] = int32(cfg.IssueBuffer - 1 - i)
	}
	for r := range q.rowMin {
		q.rowMin[r] = math.MaxInt64
		bitvec.Set(q.openW, r)
	}
	q.sb.Grow(cfg.IssueBuffer)
	return q, nil
}

// push appends u to physical row r, keeping the row's minimum and open
// bit current. The row must be open.
func (q *PreschedIQ) push(r int, u *uop.UOp) {
	q.lines[r] = append(q.lines[r], u)
	if u.Seq < q.rowMin[r] {
		q.rowMin[r] = u.Seq
	}
	if len(q.lines[r]) == q.cfg.LineWidth {
		bitvec.Clear(q.openW, r)
	}
}

// refresh recomputes physical row r's minimum and open bit after
// entries left it: at most LineWidth entries, never the whole array.
func (q *PreschedIQ) refresh(r int) {
	m := int64(math.MaxInt64)
	for _, x := range q.lines[r] {
		if x.Seq < m {
			m = x.Seq
		}
	}
	q.rowMin[r] = m
	bitvec.Assign(q.openW, r, len(q.lines[r]) < q.cfg.LineWidth)
}

// firstOpen returns the physical row of the first open row at offsets
// lo, lo+1, ..., hi-1 from the head, or -1: the ascending search, taken
// over the open-row bits in at most two runs of the ring.
func (q *PreschedIQ) firstOpen(lo, hi int) int {
	if lo >= hi {
		return -1
	}
	n := q.cfg.Lines
	s, e := (q.head+lo)%n, q.head+hi
	if e > n && s >= q.head {
		// The range wraps: [s, n) first, then [0, e-n).
		if r := bitvec.NextSet(q.openW, s); r >= 0 {
			return r
		}
		s, e = 0, e-n
	} else if e > n {
		e -= n
	}
	if r := bitvec.NextSet(q.openW, s); r >= 0 && r < e {
		return r
	}
	return -1
}

// lastOpen returns the physical row of the first open row at offsets
// hi-1, hi-2, ..., lo from the head, or -1: the descending search.
func (q *PreschedIQ) lastOpen(lo, hi int) int {
	if lo >= hi {
		return -1
	}
	n := q.cfg.Lines
	t, s := (q.head+hi-1)%n, q.head+lo
	if s < n && t < q.head {
		// The range wraps: [0, t] first, then [s, n).
		if r := bitvec.PrevSet(q.openW, t); r >= 0 {
			return r
		}
		t = n - 1
	} else if s >= n {
		s -= n
	}
	if r := bitvec.PrevSet(q.openW, t); r >= s {
		return r
	}
	return -1
}

// availRow returns a thread's availability-table entry for reg.
func (q *PreschedIQ) availRow(thread, reg int) *availEntry {
	return &q.avail[thread*isa.NumRegs+reg]
}

// MustNew is New for known-good configurations.
func MustNew(cfg Config) *PreschedIQ {
	q, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return q
}

// Name implements iq.Queue.
func (q *PreschedIQ) Name() string { return "prescheduled" }

// Capacity implements iq.Queue.
func (q *PreschedIQ) Capacity() int { return q.cfg.IssueBuffer + q.cfg.Lines*q.cfg.LineWidth }

// Len implements iq.Queue.
func (q *PreschedIQ) Len() int { return q.total }

// ExtraDispatchStages implements iq.Queue: prescheduling costs an extra
// dispatch cycle, as the paper charges (§5).
func (q *PreschedIQ) ExtraDispatchStages() int { return 1 }

// wake delivers p's now-known completion time to parked buffer entries.
func (q *PreschedIQ) wake(cycle int64, p *uop.UOp) {
	for _, h := range q.sb.Wake(p, cycle) {
		bitvec.Set(q.readyW, int(h))
	}
}

// advance moves the queue's clock to cycle: re-check issued producers
// whose completion time was unknown and deliver scheduled wakeups.
func (q *PreschedIQ) advance(cycle int64) {
	q.now = cycle
	if len(q.unresolved) > 0 {
		kept := q.unresolved[:0]
		for _, u := range q.unresolved {
			if u.Complete == uop.NotYet {
				kept = append(kept, u)
				continue
			}
			q.wake(cycle, u)
		}
		for i := len(kept); i < len(q.unresolved); i++ {
			q.unresolved[i] = nil
		}
		q.unresolved = kept
	}
	for _, h := range q.sb.Due(cycle) {
		bitvec.Set(q.readyW, int(h))
	}
}

// bufEnter places u in the issue buffer, assigning a scoreboard ticket.
func (q *PreschedIQ) bufEnter(u *uop.UOp, cycle int64) {
	t := q.free[len(q.free)-1]
	q.free = q.free[:len(q.free)-1]
	q.tslot[t] = u
	if u.IsStore() {
		bitvec.Set(q.storeW, int(t))
	}
	if q.sb.Track(t, u, cycle) {
		bitvec.Set(q.readyW, int(t))
	}
	q.buf = append(q.buf, u)
	q.bufAt = append(q.bufAt, cycle)
	q.bufH = append(q.bufH, t)
}

// bufLeave releases ticket t after its instruction left the buffer.
func (q *PreschedIQ) bufLeave(t int32) {
	q.sb.Untrack(t)
	q.tslot[t] = nil
	bitvec.Clear(q.readyW, int(t))
	bitvec.Clear(q.storeW, int(t))
	q.free = append(q.free, t)
}

// BeginCycle implements iq.Queue: the oldest due row drains into the issue
// buffer; the array advances one row per cycle at most, and stalls while
// the buffer lacks space.
func (q *PreschedIQ) BeginCycle(cycle int64) {
	q.advance(cycle)
	if q.base <= cycle {
		// Recycling (Michaud & Seznec): instructions that reached the
		// issue buffer before their operands — a mispredicted load
		// latency — are reinserted into the scheduling array when the
		// buffer is full and a row is waiting to drain. Without it the
		// buffer wedges solid with campers.
		if len(q.lines[q.head]) > 0 && len(q.buf) >= q.cfg.IssueBuffer {
			q.recycleCampers(cycle, len(q.lines[q.head]))
		}
		row := q.lines[q.head]
		moved := 0
		for _, u := range row {
			if len(q.buf) >= q.cfg.IssueBuffer {
				break
			}
			q.bufEnter(u, cycle)
			moved++
		}
		if moved > 0 {
			q.lines[q.head] = append(row[:0], row[moved:]...)
			q.refresh(q.head)
		}
		if len(q.lines[q.head]) == 0 {
			q.lines[q.head] = nil
			q.head = (q.head + 1) % q.cfg.Lines
			q.base++
		}
	}

	q.stBufOcc.Observe(float64(len(q.buf)))
	// The ready bitmap tracks issue readiness, under which a store waits
	// only for its address; the unreadiness statistic counts full operand
	// readiness, so discount ready stores with pending data before
	// subtracting.
	ready := bitvec.Count(q.readyW)
	for k := range q.readyW {
		w := q.readyW[k] & q.storeW[k]
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &= w - 1
			if !q.tslot[k<<6+b].OperandReady(0, cycle) {
				ready--
			}
		}
	}
	q.stBufUnready.Observe(float64(len(q.buf) - ready))
	q.stArrayOcc.Observe(float64(q.total - len(q.buf)))
}

// recycleCampers removes up to need unready instructions from the issue
// buffer, youngest first, and reinserts them into the scheduling array at
// their re-predicted ready rows (a fixed reinsertion distance when the
// producer's latency is still unknown).
func (q *PreschedIQ) recycleCampers(cycle int64, need int) {
	const unknownDelay = 8
	for n := 0; n < need; n++ {
		pick := -1
		for i := len(q.buf) - 1; i >= 0; i-- {
			if !bitvec.Test(q.readyW, int(q.bufH[i])) {
				pick = i
				break
			}
		}
		if pick < 0 {
			return // every camper is ready; they will issue
		}
		u := q.buf[pick]
		q.bufLeave(q.bufH[pick])
		q.buf = append(q.buf[:pick], q.buf[pick+1:]...)
		q.bufAt = append(q.bufAt[:pick], q.bufAt[pick+1:]...)
		q.bufH = append(q.bufH[:pick], q.bufH[pick+1:]...)

		d := int64(unknownDelay)
		known := true
		for j := 0; j < 2; j++ {
			if u.IsStore() && j == 0 {
				continue
			}
			if p := u.Prod[j]; p != nil && p.Complete == uop.NotYet {
				known = false
			} else if p != nil && p.Complete-cycle > d {
				d = p.Complete - cycle
			}
		}
		if !known {
			d = unknownDelay
		}
		idx := int(d)
		if idx >= q.cfg.Lines {
			idx = q.cfg.Lines - 1
		}
		if idx < 1 {
			idx = 1 // never into the head row: it is what we are draining
		}
		// Search the rows at and after the target first, then back
		// towards (never into) the head row.
		placed := q.firstOpen(idx, q.cfg.Lines)
		if placed < 0 {
			placed = q.lastOpen(1, idx)
		}
		if placed < 0 {
			// Array completely full: swap the camper with the globally
			// oldest array instruction. The pop above freed a buffer
			// slot, the oldest instruction is the one whose completion
			// unblocks the machine (it is the ROB head or feeds it), and
			// the camper takes its slot — guaranteed forward progress
			// even when every structure is full. The row minima find it
			// without walking the array (Seq is unique, so the row and
			// index are the ones a row-major walk would pick).
			oldRow, oldSeq := -1, int64(math.MaxInt64)
			for r, m := range q.rowMin {
				if m < oldSeq {
					oldRow, oldSeq = r, m
				}
			}
			if oldRow < 0 {
				// No array instructions at all: give up (cannot happen
				// while placement fails, but stay safe).
				q.bufEnter(u, cycle)
				return
			}
			row := q.lines[oldRow]
			oldIdx := 0
			for row[oldIdx].Seq != oldSeq {
				oldIdx++
			}
			oldest := row[oldIdx]
			row = append(row[:oldIdx], row[oldIdx+1:]...)
			q.lines[oldRow] = append(row, u)
			q.refresh(oldRow)
			q.bufEnter(oldest, cycle)
		} else {
			q.push(placed, u)
		}
		q.stRecycled.Inc()
	}
}

// Issue implements iq.Queue: conventional wakeup/select over the issue
// buffer only. The returned slice is owned by the queue and valid until
// the next call.
func (q *PreschedIQ) Issue(cycle int64, max int, tryIssue func(*uop.UOp) bool) []*uop.UOp {
	if cycle != q.now {
		// Unit-test drivers may skip BeginCycle; deliver wakeups here.
		q.advance(cycle)
	}
	out := q.outScratch[:0]
	kept := q.buf[:0]
	keptAt := q.bufAt[:0]
	keptH := q.bufH[:0]
	for i, u := range q.buf {
		if len(out) < max && q.bufAt[i] < cycle && bitvec.Test(q.readyW, int(q.bufH[i])) && tryIssue(u) {
			u.IssueCycle = cycle
			out = append(out, u)
			q.bufLeave(q.bufH[i])
			if u.Inst.HasDest() && !u.IsLoad() {
				q.unresolved = append(q.unresolved, u)
			}
			continue
		}
		kept = append(kept, u)
		keptAt = append(keptAt, q.bufAt[i])
		keptH = append(keptH, q.bufH[i])
	}
	for i := len(kept); i < len(q.buf); i++ {
		q.buf[i] = nil
	}
	q.buf = kept
	q.bufAt = keptAt
	q.bufH = keptH
	q.total -= len(out)
	q.outScratch = out
	q.stIssued.Add(uint64(len(out)))
	return out
}

// predictedReady returns the cycle operand j of u is expected to become
// available, preferring exact knowledge (a resolved producer) over the
// availability table's prediction.
func (q *PreschedIQ) predictedReady(u *uop.UOp, j int, cycle int64) int64 {
	src := u.Src(j)
	if src == isa.RegNone || src == isa.RegZero {
		return cycle
	}
	if p := u.Prod[j]; p != nil && p.Complete != uop.NotYet {
		return p.Complete
	}
	e := q.availRow(u.Thread, src)
	if e.valid && e.producer != nil && e.producer.Complete == uop.NotYet {
		return e.at
	}
	if e.valid && e.producer != nil && e.producer.Complete != uop.NotYet {
		return e.producer.Complete
	}
	return cycle
}

// Dispatch implements iq.Queue: quasi-static placement by predicted ready
// time. Returns false when the target row and every later row is full.
// A store is placed by its address operand alone (the data drains through
// the LSQ).
func (q *PreschedIQ) Dispatch(cycle int64, u *uop.UOp) bool {
	r := q.predictedReady(u, 1, cycle)
	if !u.IsStore() {
		if r0 := q.predictedReady(u, 0, cycle); r0 > r {
			r = r0
		}
	}
	d := r - cycle
	if d < 0 {
		d = 0
	}
	idx := int(d)
	if idx >= q.cfg.Lines {
		idx = q.cfg.Lines - 1
	}
	placed := q.firstOpen(idx, q.cfg.Lines)
	if placed < 0 {
		q.stStallFull.Inc()
		return false
	}
	u.DispatchCycle = cycle
	q.push(placed, u)
	q.total++
	q.stDispatched.Inc()
	q.dem.Observe(cycle, int64(q.total))

	if u.Inst.HasDest() {
		lat := int64(u.Latency())
		if u.IsLoad() {
			lat = int64(q.cfg.PredictedLoadLatency)
		}
		// Predicted issue is one cycle after the row drains to the buffer.
		*q.availRow(u.Thread, u.Inst.Dest) = availEntry{valid: true, producer: u, at: cycle + d + 1 + lat}
	}
	return true
}

// NotifyLoadMiss implements iq.Queue: the prescheduling design has no
// post-dispatch correction mechanism — the paper's central criticism.
func (q *PreschedIQ) NotifyLoadMiss(cycle int64, u *uop.UOp) {}

// NotifyLoadComplete implements iq.Queue: the load's completion cycle is
// now known, so wake buffered consumers parked on it. (Future dependents
// use the resolved completion time through the producer edge.) The wake
// is clocked by the queue's own cycle, not the caller's stamp, since some
// drivers announce writebacks scheduled for a future cycle.
func (q *PreschedIQ) NotifyLoadComplete(cycle int64, u *uop.UOp) {
	q.wake(q.now, u)
}

// Writeback implements iq.Queue: wake parked consumers (see
// NotifyLoadComplete for the clocking) and release the
// availability-table row.
func (q *PreschedIQ) Writeback(cycle int64, u *uop.UOp) {
	q.wake(q.now, u)
	if !u.Inst.HasDest() {
		return
	}
	e := q.availRow(u.Thread, u.Inst.Dest)
	if e.valid && e.producer == u {
		e.valid = false
		e.producer = nil
	}
}

// EndCycle implements iq.Queue (the array always advances; no deadlock).
func (q *PreschedIQ) EndCycle(cycle int64, machineActive bool) {}

// CollectStats implements iq.Queue.
func (q *PreschedIQ) CollectStats(s *stats.Set) {
	s.Put("iq_dispatched", float64(q.stDispatched.Value()))
	s.Put("iq_issued", float64(q.stIssued.Value()))
	s.Put("iq_stall_full", float64(q.stStallFull.Value()))
	s.Put("presched_recycled", float64(q.stRecycled.Value()))
	s.Put("presched_buf_occupancy_avg", q.stBufOcc.Value())
	s.Put("presched_buf_unready_avg", q.stBufUnready.Value())
	s.Put("presched_array_occupancy_avg", q.stArrayOcc.Value())
}

var _ iq.Queue = (*PreschedIQ)(nil)
