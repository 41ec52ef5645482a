// Package fifoiq implements the dependence-based FIFO instruction queue
// of Palacharla, Jouppi & Smith — the first dependence-based IQ design,
// which the paper's related-work section (§2) positions against the
// segmented queue, and which Michaud & Seznec report their prescheduling
// design outperforms.
//
// The queue is a set of FIFOs; only the FIFO heads are examined by
// wakeup/select, so scheduling latency scales with the number of FIFOs
// rather than the number of slots. Dispatch steers each instruction
// behind a producer of one of its operands when that producer is the tail
// of a FIFO and the slot behind it is free; otherwise — operands
// available, or the slot taken — the instruction needs an empty FIFO, and
// dispatch stalls when none exists. The structure embeds scheduling
// (head-order) dependences that are not data dependences, which is
// exactly the inflexibility the segmented design removes.
package fifoiq

import (
	"fmt"
	"math/bits"

	"repro/internal/bitvec"
	"repro/internal/iq"
	"repro/internal/stats"
	"repro/internal/uop"
)

// Config describes a FIFO-based IQ.
type Config struct {
	// FIFOs is the number of queues (wakeup/select examines this many
	// heads).
	FIFOs int
	// Depth is the capacity of each FIFO.
	Depth int
}

// DefaultConfig follows Palacharla et al.'s proportions: depth-8 FIFOs
// covering the requested total capacity.
func DefaultConfig(totalSlots int) Config {
	f := totalSlots / 8
	if f < 1 {
		f = 1
	}
	return Config{FIFOs: f, Depth: 8}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.FIFOs < 1 || c.Depth < 1 {
		return fmt.Errorf("fifoiq: non-positive geometry %+v", c)
	}
	return nil
}

// cand is an issue candidate: a ready FIFO head and its queue index.
type cand struct {
	fifo int
	u    *uop.UOp
}

// FIFOIQ implements iq.Queue.
//
// Only the FIFO heads participate in wakeup, so the ready state is one
// bit per FIFO, maintained event-driven by an iq.Scoreboard (handle =
// FIFO index): a head is tracked when it becomes exposed and untracked
// when popped, and select walks the set bits instead of re-testing every
// head's operands each cycle.
type FIFOIQ struct {
	cfg   Config
	fifos [][]*uop.UOp
	total int
	now   int64 // current cycle; clocks wakeup deliveries

	readyW []uint64 // per-FIFO: head exposed and issue-ready
	sb     iq.Scoreboard

	// unresolved holds issued non-load producers whose completion time
	// was still unknown when they left the queue; the next cycle re-checks
	// them (the execution core stamps Complete right after Issue returns).
	// A load's completion arrives with NotifyLoadComplete.
	unresolved []*uop.UOp

	// Reused per-cycle scratch: candidate heads and Issue's result (the
	// returned slice is valid only until the next call).
	candScratch []cand
	outScratch  []*uop.UOp

	stDispatched stats.Counter
	stIssued     stats.Counter
	stStallFull  stats.Counter
	stSteered    stats.Counter // placed behind a producer
	stNewFIFO    stats.Counter // placed at the head of an empty FIFO
	stOccupancy  stats.Mean
	stReadyHeads stats.Mean

	dem iq.Watermark // occupancy high-watermark, for prefix sharing
}

// New builds a FIFO-based IQ.
func New(cfg Config) (*FIFOIQ, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	q := &FIFOIQ{
		cfg:    cfg,
		fifos:  make([][]*uop.UOp, cfg.FIFOs),
		readyW: bitvec.New(cfg.FIFOs),
	}
	q.sb.Grow(cfg.FIFOs)
	return q, nil
}

// MustNew is New for known-good configurations.
func MustNew(cfg Config) *FIFOIQ {
	q, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return q
}

// Name implements iq.Queue.
func (q *FIFOIQ) Name() string { return "fifos" }

// Capacity implements iq.Queue.
func (q *FIFOIQ) Capacity() int { return q.cfg.FIFOs * q.cfg.Depth }

// Len implements iq.Queue.
func (q *FIFOIQ) Len() int { return q.total }

// ExtraDispatchStages implements iq.Queue: the steering logic is simple
// enough that Palacharla et al. charge no extra latency.
func (q *FIFOIQ) ExtraDispatchStages() int { return 0 }

// wake delivers p's now-known completion time to parked head consumers.
func (q *FIFOIQ) wake(cycle int64, p *uop.UOp) {
	for _, h := range q.sb.Wake(p, cycle) {
		bitvec.Set(q.readyW, int(h))
	}
}

// advance moves the queue's clock to cycle: re-check issued producers
// whose completion time was unknown and deliver scheduled wakeups.
func (q *FIFOIQ) advance(cycle int64) {
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

// BeginCycle implements iq.Queue: deliver scheduled wakeups (FIFOs have
// no internal motion) and sample the head-readiness statistic.
func (q *FIFOIQ) BeginCycle(cycle int64) {
	q.advance(cycle)
	q.stOccupancy.Observe(float64(q.total))
	q.stReadyHeads.Observe(float64(bitvec.Count(q.readyW)))
}

// sortCandsBySeq orders candidates by ascending sequence number with an
// in-place insertion sort (at most one candidate per FIFO; no closure
// allocation, unlike sort.Slice).
func sortCandsBySeq(cs []cand) {
	for i := 1; i < len(cs); i++ {
		c := cs[i]
		j := i - 1
		for j >= 0 && cs[j].u.Seq > c.u.Seq {
			cs[j+1] = cs[j]
			j--
		}
		cs[j+1] = c
	}
}

// Issue implements iq.Queue: wakeup/select over the FIFO heads only,
// oldest ready head first. Popping a head exposes the next instruction
// for the following cycle. The returned slice is owned by the queue and
// valid until the next call.
func (q *FIFOIQ) Issue(cycle int64, max int, tryIssue func(*uop.UOp) bool) []*uop.UOp {
	if cycle != q.now {
		// Unit-test drivers may skip BeginCycle; deliver wakeups here.
		q.advance(cycle)
	}
	// Snapshot the ready heads first: popping a head below exposes the
	// next instruction, which must wait until the following cycle.
	cands := q.candScratch[:0]
	for k, w := range q.readyW {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &= w - 1
			i := k<<6 + b
			u := q.fifos[i][0]
			if u.DispatchCycle < cycle {
				cands = append(cands, cand{fifo: i, u: u})
			}
		}
	}
	q.candScratch = cands[:0]
	sortCandsBySeq(cands)
	out := q.outScratch[:0]
	for _, c := range cands {
		if len(out) >= max {
			break
		}
		if !tryIssue(c.u) {
			continue
		}
		c.u.IssueCycle = cycle
		f := q.fifos[c.fifo]
		copy(f, f[1:])
		f[len(f)-1] = nil
		f = f[:len(f)-1]
		q.fifos[c.fifo] = f
		q.total--
		bitvec.Clear(q.readyW, c.fifo)
		q.sb.Untrack(int32(c.fifo))
		if len(f) > 0 {
			q.trackHead(c.fifo, f[0], cycle)
		}
		if c.u.Inst.HasDest() && !c.u.IsLoad() {
			q.unresolved = append(q.unresolved, c.u)
		}
		out = append(out, c.u)
	}
	q.outScratch = out
	q.stIssued.Add(uint64(len(out)))
	return out
}

// trackHead registers a newly exposed FIFO head with the scoreboard.
func (q *FIFOIQ) trackHead(fifo int, u *uop.UOp, cycle int64) {
	if q.sb.Track(int32(fifo), u, cycle) {
		bitvec.Set(q.readyW, fifo)
	}
}

// Dispatch implements iq.Queue: steer behind an operand producer at a
// FIFO tail, else claim an empty FIFO, else stall.
func (q *FIFOIQ) Dispatch(cycle int64, u *uop.UOp) bool {
	// Try to append directly behind a producer that is a FIFO tail.
	for j := 0; j < 2; j++ {
		if u.IsStore() && j == 0 {
			continue // the data operand does not gate the EA calculation
		}
		p := u.Prod[j]
		if p == nil || (p.Complete != uop.NotYet && p.Complete <= cycle) {
			continue
		}
		for i, f := range q.fifos {
			if len(f) > 0 && len(f) < q.cfg.Depth && f[len(f)-1] == p {
				q.fifos[i] = append(f, u)
				q.place(u, cycle)
				q.stSteered.Inc()
				return true
			}
		}
	}
	// Operands available, or the producer slot is taken: an empty FIFO.
	for i, f := range q.fifos {
		if len(f) == 0 {
			q.fifos[i] = append(f, u)
			q.place(u, cycle)
			q.trackHead(i, u, cycle)
			q.stNewFIFO.Inc()
			return true
		}
	}
	q.stStallFull.Inc()
	return false
}

func (q *FIFOIQ) place(u *uop.UOp, cycle int64) {
	u.DispatchCycle = cycle
	q.total++
	q.stDispatched.Inc()
	q.dem.Observe(cycle, int64(q.total))
}

// NotifyLoadMiss implements iq.Queue (no-op: FIFO order is fixed at
// dispatch).
func (q *FIFOIQ) NotifyLoadMiss(cycle int64, u *uop.UOp) {}

// NotifyLoadComplete implements iq.Queue: the load's completion cycle is
// now known, so wake heads parked on it. The wake is clocked by the
// queue's own cycle, not the caller's stamp, since some drivers announce
// writebacks scheduled for a future cycle.
func (q *FIFOIQ) NotifyLoadComplete(cycle int64, u *uop.UOp) {
	q.wake(q.now, u)
}

// Writeback implements iq.Queue: wake heads parked on u (see
// NotifyLoadComplete for the clocking).
func (q *FIFOIQ) Writeback(cycle int64, u *uop.UOp) {
	q.wake(q.now, u)
}

// EndCycle implements iq.Queue: FIFO heads always drain once ready, so
// the structure cannot deadlock.
func (q *FIFOIQ) EndCycle(cycle int64, machineActive bool) {}

// CollectStats implements iq.Queue.
func (q *FIFOIQ) CollectStats(s *stats.Set) {
	s.Put("iq_dispatched", float64(q.stDispatched.Value()))
	s.Put("iq_issued", float64(q.stIssued.Value()))
	s.Put("iq_stall_full", float64(q.stStallFull.Value()))
	s.Put("iq_occupancy_avg", q.stOccupancy.Value())
	s.Put("fifo_steered", float64(q.stSteered.Value()))
	s.Put("fifo_new", float64(q.stNewFIFO.Value()))
	s.Put("fifo_ready_heads_avg", q.stReadyHeads.Value())
}

var _ iq.Queue = (*FIFOIQ)(nil)
