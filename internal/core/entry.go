package core

import (
	"math/bits"

	"repro/internal/isa"
	"repro/internal/uop"
)

// chainRef is one chain membership of a queue entry: the per-IQ-entry
// per-chain fields of §3.3 (chain ID, delay value, chain-head location,
// self-timed flag), plus the suspend flag of §3.4.
//
// A running self-timed countdown is stored as a deadline rather than
// decremented every cycle: while running() the delay value is
// max(0, due-now) in queue ticks, and delay is unused (zero); otherwise
// delay holds the value and due is unused. Suspend freezes the remaining
// value back into delay; resume re-arms due.
type chainRef struct {
	ch        chain
	delay     int
	due       int64
	headLoc   int
	selfTimed bool
	suspended bool
	// slot is the reference's index in the queue's member list for its
	// wire, while its entry is resident on a real wire.
	slot int32
}

// untilDue is a running countdown's value at tick now.
func untilDue(due, now int64) int {
	if due > now {
		return int(due - now)
	}
	return 0
}

// running reports whether the self-timed countdown is counting down.
func (cr *chainRef) running() bool { return cr.selfTimed && !cr.suspended }

// delayAt returns the reference's delay value at queue tick now.
func (cr *chainRef) delayAt(now int64) int {
	if cr.running() {
		return untilDue(cr.due, now)
	}
	return cr.delay
}

// start arms the countdown with the frozen delay value.
func (cr *chainRef) start(now int64) {
	cr.due, cr.delay = now+int64(cr.delay), 0
}

// observe applies one chain-wire assertion to the reference at tick now.
func (cr *chainRef) observe(s signal, now int64) {
	if cr.ch != s.ch {
		return
	}
	switch s.typ {
	case sigAdvance:
		if cr.selfTimed {
			return // stale: the head already issued
		}
		if cr.headLoc > 0 {
			cr.headLoc--
			cr.delay -= 2
			if cr.delay < 0 {
				cr.delay = 0
			}
		} else {
			// Head-location zero: this assertion is the head's issue.
			cr.selfTimed = true
			if !cr.suspended {
				cr.start(now)
			}
		}
	case sigSuspend:
		if cr.running() {
			cr.delay, cr.due = untilDue(cr.due, now), 0
		}
		cr.suspended = true
	case sigResume:
		if cr.selfTimed && cr.suspended {
			cr.start(now)
		}
		cr.suspended = false
	}
}

// entry is the segmented IQ's per-instruction state, held in the queue's
// arena. It lives from dispatch to writeback (chains are deallocated at
// head writeback, after the entry has left the queue segments); its arena
// slot is then reused.
type entry struct {
	u *uop.UOp
	// seq caches u.Seq, the key segments are sorted by.
	seq int64
	// seg is the segment holding the entry, or -1 while it is off the
	// segments: a batch-promotion candidate in transit, the entry deadlock
	// recovery recycles, or an issued instruction.
	seg int
	// id is the entry's arena handle, which is also its scoreboard handle.
	// The queue's pos[id] locates it in its segment (SegmentedIQ.slot).
	id int32
	// arrived is the cycle the entry entered its current segment (or was
	// dispatched); it may not move again, or issue, in that same cycle.
	arrived int64
	// cross is the tick of the entry's live item in the queue's crossing
	// heap — the tick its running countdowns bring it below its segment's
	// threshold — or 0 when it has none.
	cross int64
	// last, frozen and wired summarize refs (summarize): the latest
	// deadline of a running countdown (0 if none), the largest stopped
	// delay value, and a bit per ref on a real chain wire. Moving an entry
	// between segments needs only these, so promotion stays off the refs'
	// cache lines.
	last   int64
	frozen int
	wired  uint8

	isHead bool
	// pushedDown marks an entry whose last promotion came from the
	// pushdown mechanism (stats only).
	pushedDown bool
	// lrpTracked marks an instruction whose left/right prediction must be
	// scored and trained when both operand arrival times are known.
	lrpTracked bool

	refs  [2]chainRef
	nrefs int
	head  chain
}

// effDelay returns the entry's effective delay value at queue tick now:
// the maximum over its chain memberships (§3.2: an instruction on two
// chains dynamically uses the larger value, indicating the later-arriving
// operand).
func (e *entry) effDelay(now int64) int {
	d := 0
	for i := 0; i < e.nrefs; i++ {
		if v := e.refs[i].delayAt(now); v > d {
			d = v
		}
	}
	return d
}

// summarize recomputes last, frozen and wired from refs; every change to
// refs is followed by it.
func (e *entry) summarize() {
	e.last, e.frozen, e.wired = 0, 0, 0
	for i := 0; i < e.nrefs; i++ {
		cr := &e.refs[i]
		if cr.running() {
			e.last = max(e.last, cr.due)
		} else {
			e.frozen = max(e.frozen, cr.delay)
		}
		if cr.ch.real() {
			e.wired |= 1 << i
		}
	}
}

// crossing reports whether the entry's effective delay at tick now is
// below thr. If it is not, at is the first later tick at which its running
// countdowns take it below thr with no further signal, or 0 when a frozen
// value at or above thr blocks that. untilDue(last, t) < thr exactly when
// t > last-thr; with no running countdown last is 0 and any tick passes.
func (e *entry) crossing(thr int, now int64) (below bool, at int64) {
	if e.frozen >= thr {
		return false, 0
	}
	if at := e.last - int64(thr) + 1; at > now {
		return false, at
	}
	return true, 0
}

// observe applies a chain-wire assertion to all memberships at tick now.
// Signals travel on real wires, so only memberships on the signal's wire
// (bits of wired) can change, and the summary is re-derived only then.
func (e *entry) observe(s signal, now int64) {
	hit := false
	for w := e.wired; w != 0; w &= w - 1 {
		if cr := &e.refs[bits.TrailingZeros8(w)]; cr.ch == s.ch {
			cr.observe(s, now)
			hit = true
		}
	}
	if hit {
		e.summarize()
	}
}

// regEntry is one register's row in the register information table of
// §3.3: the chain that will produce the register, the value's expected
// latency relative to the chain head's issue, the head's current segment,
// and the self-timed flag (plus suspension, mirroring chain state). A
// running self-timed latency is a deadline, exactly as in chainRef:
// latency holds the value while stopped, due while running.
type regEntry struct {
	valid     bool
	producer  *uop.UOp
	ch        chain
	latency   int
	due       int64
	headLoc   int
	selfTimed bool
	suspended bool
	// slot is the row's index in the queue's row list for its wire, while
	// the row is valid on a real wire.
	slot int32
}

// running reports whether the self-timed latency is counting down.
func (re *regEntry) running() bool { return re.selfTimed && !re.suspended }

// latencyAt returns the row's latency value at queue tick now.
func (re *regEntry) latencyAt(now int64) int {
	if re.running() {
		return untilDue(re.due, now)
	}
	return re.latency
}

// start arms the countdown with the frozen latency value.
func (re *regEntry) start(now int64) {
	re.due, re.latency = now+int64(re.latency), 0
}

// outstandingAt reports whether the register's value is still to be
// produced for scheduling purposes at tick now. Per §3.3, once a
// self-timed entry's latency reaches zero the value is assumed available.
func (re *regEntry) outstandingAt(now int64) bool {
	return re.valid && !(re.selfTimed && re.latencyAt(now) == 0)
}

// observe applies a chain-wire assertion to the table row at tick now.
// The latency field is relative to head issue, so promotions adjust only
// the head location; the issue assertion starts the self-timed countdown.
func (re *regEntry) observe(s signal, now int64) {
	if !re.valid || re.ch != s.ch {
		return
	}
	switch s.typ {
	case sigAdvance:
		if re.selfTimed {
			return
		}
		if re.headLoc > 0 {
			re.headLoc--
		} else {
			re.selfTimed = true
			if !re.suspended {
				re.start(now)
			}
		}
	case sigSuspend:
		if re.running() {
			re.latency, re.due = untilDue(re.due, now), 0
		}
		re.suspended = true
	case sigResume:
		if re.selfTimed && re.suspended {
			re.start(now)
		}
		re.suspended = false
	}
}

// regTable is the dispatch stage's register information table, replicated
// per hardware context under SMT.
type regTable []regEntry

func newRegTable(threads int) regTable {
	if threads < 1 {
		threads = 1
	}
	return make(regTable, threads*isa.NumRegs)
}

// rowIndex returns the table index of a thread's architectural register.
func rowIndex(thread, reg int) int { return thread*isa.NumRegs + reg }

// row returns the entry for a thread's architectural register.
func (t regTable) row(thread, reg int) *regEntry {
	return &t[rowIndex(thread, reg)]
}
