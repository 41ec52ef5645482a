package core

import (
	"testing"
	"testing/quick"
)

// tickRef and tickRow are the per-cycle countdown model the deadline
// representation replaces: a running self-timed countdown is decremented
// by every tick. They are the reference the differential properties below
// hold chainRef and regEntry to.
type tickRef struct {
	ch        chain
	delay     int
	headLoc   int
	selfTimed bool
	suspended bool
}

func (r *tickRef) observe(s signal) {
	if r.ch != s.ch {
		return
	}
	switch s.typ {
	case sigAdvance:
		if r.selfTimed {
			return
		}
		if r.headLoc > 0 {
			r.headLoc--
			r.delay -= 2
			if r.delay < 0 {
				r.delay = 0
			}
		} else {
			r.selfTimed = true
		}
	case sigSuspend:
		r.suspended = true
	case sigResume:
		r.suspended = false
	}
}

func (r *tickRef) tick() {
	if r.selfTimed && !r.suspended && r.delay > 0 {
		r.delay--
	}
}

type tickRow struct {
	ch        chain
	latency   int
	headLoc   int
	selfTimed bool
	suspended bool
}

func (r *tickRow) observe(s signal) {
	if r.ch != s.ch {
		return
	}
	switch s.typ {
	case sigAdvance:
		if r.selfTimed {
			return
		}
		if r.headLoc > 0 {
			r.headLoc--
		} else {
			r.selfTimed = true
		}
	case sigSuspend:
		r.suspended = true
	case sigResume:
		r.suspended = false
	}
}

func (r *tickRow) tick() {
	if r.selfTimed && !r.suspended && r.latency > 0 {
		r.latency--
	}
}

func (r *tickRow) outstanding() bool { return !(r.selfTimed && r.latency == 0) }

// countdownOp decodes one random operation: 0 advance, 1 suspend,
// 2 resume, 3 tick, 4 a foreign signal (another wire, or another
// generation of the same wire) of any type.
func countdownOp(op uint8, ch chain) (s signal, tick bool) {
	typ := sigType(op / 5 % 3)
	switch op % 5 {
	case 0:
		return signal{ch: ch, typ: sigAdvance}, false
	case 1:
		return signal{ch: ch, typ: sigSuspend}, false
	case 2:
		return signal{ch: ch, typ: sigResume}, false
	case 3:
		return signal{}, true
	}
	if op&0x80 != 0 {
		return signal{ch: chain{id: ch.id, gen: ch.gen + 1}, typ: typ}, false
	}
	return signal{ch: chain{id: ch.id + 1, gen: ch.gen}, typ: typ}, false
}

// Property: a chainRef driven by any sequence of signals and ticks, from
// any starting state and tick base, reads exactly as the per-cycle model
// at every step — effective delay, head location, self-timed and
// suspended flags.
func TestChainRefMatchesTickModel(t *testing.T) {
	f := func(ops []uint8, delay, headLoc uint8, selfTimed, suspended bool, base uint32) bool {
		ch := chain{id: 2, gen: 5}
		old := tickRef{ch: ch, delay: int(delay % 64), headLoc: int(headLoc % 16),
			selfTimed: selfTimed, suspended: suspended}
		cr := chainRef{ch: ch, delay: old.delay, headLoc: old.headLoc,
			selfTimed: selfTimed, suspended: suspended}
		now := int64(base)
		if cr.running() {
			cr.start(now)
		}
		same := func() bool {
			return cr.delayAt(now) == old.delay && cr.headLoc == old.headLoc &&
				cr.selfTimed == old.selfTimed && cr.suspended == old.suspended
		}
		for _, op := range ops {
			s, tick := countdownOp(op, ch)
			if tick {
				old.tick()
				now++
			} else {
				old.observe(s)
				cr.observe(s, now)
			}
			if !same() {
				return false
			}
		}
		return same()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: the same for a register-table row, including whether its
// value still reads as outstanding.
func TestRegEntryMatchesTickModel(t *testing.T) {
	f := func(ops []uint8, latency, headLoc uint8, selfTimed, suspended bool, base uint32) bool {
		ch := chain{id: 4, gen: 1}
		old := tickRow{ch: ch, latency: int(latency % 64), headLoc: int(headLoc % 16),
			selfTimed: selfTimed, suspended: suspended}
		re := regEntry{valid: true, ch: ch, latency: old.latency, headLoc: old.headLoc,
			selfTimed: selfTimed, suspended: suspended}
		now := int64(base)
		if re.running() {
			re.start(now)
		}
		same := func() bool {
			return re.latencyAt(now) == old.latency && re.headLoc == old.headLoc &&
				re.selfTimed == old.selfTimed && re.suspended == old.suspended &&
				re.outstandingAt(now) == old.outstanding()
		}
		for _, op := range ops {
			s, tick := countdownOp(op, ch)
			if tick {
				old.tick()
				now++
			} else {
				old.observe(s)
				re.observe(s, now)
			}
			if !same() {
				return false
			}
		}
		return same()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
