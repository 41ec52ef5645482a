package core

import (
	"testing"
	"testing/quick"
)

func TestChainPoolLimited(t *testing.T) {
	p := newChainPool(2)
	a, ok := p.alloc()
	if !ok || !a.real() {
		t.Fatal("first alloc failed")
	}
	b, ok := p.alloc()
	if !ok {
		t.Fatal("second alloc failed")
	}
	if _, ok := p.alloc(); ok {
		t.Fatal("alloc beyond limit succeeded")
	}
	if p.inUse != 2 {
		t.Fatalf("inUse = %d", p.inUse)
	}
	p.release(a)
	c, ok := p.alloc()
	if !ok {
		t.Fatal("alloc after release failed")
	}
	if c.id != a.id {
		t.Fatalf("expected wire reuse, got id %d want %d", c.id, a.id)
	}
	if c.gen == a.gen {
		t.Fatal("generation must change on reuse")
	}
	if c == a {
		t.Fatal("reused chain must not compare equal to its prior use")
	}
	p.release(b)
	p.release(c)
	if p.inUse != 0 {
		t.Fatalf("inUse after all releases = %d", p.inUse)
	}
	if p.peak.Value() != 2 {
		t.Fatalf("peak = %d", p.peak.Value())
	}
	if p.created.Value() != 3 {
		t.Fatalf("created = %d", p.created.Value())
	}
}

func TestChainPoolUnlimited(t *testing.T) {
	p := newChainPool(0)
	seen := map[int]bool{}
	var chains []chain
	for i := 0; i < 100; i++ {
		c, ok := p.alloc()
		if !ok {
			t.Fatal("unlimited pool refused allocation")
		}
		if seen[c.id] {
			t.Fatalf("duplicate live id %d", c.id)
		}
		seen[c.id] = true
		chains = append(chains, c)
	}
	for _, c := range chains {
		p.release(c)
	}
	if p.inUse != 0 {
		t.Fatal("inUse not zero after releases")
	}
	// Reuse after release works and bumps generation.
	c, _ := p.alloc()
	if !seen[c.id] {
		t.Fatal("unlimited pool should reuse freed ids")
	}
}

func TestChainNone(t *testing.T) {
	if chainNone.real() {
		t.Fatal("chainNone must not be real")
	}
	p := newChainPool(1)
	p.release(chainNone) // must be a no-op
	if _, ok := p.alloc(); !ok {
		t.Fatal("pool corrupted by releasing chainNone")
	}
}

// Property: pool usage accounting never goes negative and peak tracks max.
func TestChainPoolAccountingProperty(t *testing.T) {
	f := func(ops []bool) bool {
		p := newChainPool(8)
		var live []chain
		maxLive := 0
		for _, doAlloc := range ops {
			if doAlloc {
				if c, ok := p.alloc(); ok {
					live = append(live, c)
				}
			} else if len(live) > 0 {
				p.release(live[len(live)-1])
				live = live[:len(live)-1]
			}
			if len(live) > maxLive {
				maxLive = len(live)
			}
			if p.inUse != len(live) || p.inUse < 0 {
				return false
			}
		}
		return p.peak.Value() == int64(maxLive)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChainRefObserve(t *testing.T) {
	ch := chain{id: 3, gen: 1}
	cr := chainRef{ch: ch, delay: 7, headLoc: 2}
	now := int64(100) // queue ticks; each tick below advances it by one

	// Advance: delay -2, headLoc -1.
	cr.observe(signal{ch: ch, typ: sigAdvance}, now)
	if cr.delayAt(now) != 5 || cr.headLoc != 1 || cr.selfTimed {
		t.Fatalf("after advance: %+v", cr)
	}
	// Signals for other chains (or other generations) are ignored.
	cr.observe(signal{ch: chain{id: 3, gen: 2}, typ: sigAdvance}, now)
	cr.observe(signal{ch: chain{id: 4, gen: 1}, typ: sigAdvance}, now)
	if cr.delayAt(now) != 5 || cr.headLoc != 1 {
		t.Fatalf("foreign signal applied: %+v", cr)
	}
	// Second advance reaches headLoc 0.
	cr.observe(signal{ch: ch, typ: sigAdvance}, now)
	if cr.delayAt(now) != 3 || cr.headLoc != 0 || cr.selfTimed {
		t.Fatalf("after second advance: %+v", cr)
	}
	// Advance with headLoc 0 is the issue assertion: self-timed mode.
	cr.observe(signal{ch: ch, typ: sigAdvance}, now)
	if !cr.selfTimed || cr.delayAt(now) != 3 {
		t.Fatalf("issue assertion mishandled: %+v", cr)
	}
	// Self-timed countdown.
	now++
	now++
	if cr.delayAt(now) != 1 {
		t.Fatalf("after ticks: %+v", cr)
	}
	// Suspend pauses, resume continues.
	cr.observe(signal{ch: ch, typ: sigSuspend}, now)
	now++
	if cr.delayAt(now) != 1 {
		t.Fatal("tick while suspended changed delay")
	}
	cr.observe(signal{ch: ch, typ: sigResume}, now)
	now++
	if cr.delayAt(now) != 0 {
		t.Fatal("resume did not restart countdown")
	}
	// Delay floors at zero.
	now++
	if cr.delayAt(now) != 0 {
		t.Fatal("delay went negative")
	}
	// Stale advance after self-timed is ignored.
	cr.observe(signal{ch: ch, typ: sigAdvance}, now)
	if cr.delayAt(now) != 0 || !cr.selfTimed {
		t.Fatal("stale advance applied")
	}
}

func TestChainRefDelayFloor(t *testing.T) {
	ch := chain{id: 1}
	cr := chainRef{ch: ch, delay: 1, headLoc: 3}
	cr.observe(signal{ch: ch, typ: sigAdvance}, 0)
	if cr.delayAt(0) != 0 {
		t.Fatalf("delay = %d, want floor 0", cr.delayAt(0))
	}
	if cr.headLoc != 2 {
		t.Fatalf("headLoc = %d", cr.headLoc)
	}
}

func TestWirePipe(t *testing.T) {
	w := newWirePipe(3)
	ch := chain{id: 5}
	w.assert(0, signal{ch: ch, typ: sigAdvance})
	if len(w.at(0)) != 1 {
		t.Fatal("signal not present at origin")
	}
	w.shift()
	if len(w.at(0)) != 0 || len(w.at(1)) != 1 {
		t.Fatal("signal did not move to position 1")
	}
	w.shift()
	w.shift()
	// Now at position 3 = the register-table position.
	if len(w.at(3)) != 1 {
		t.Fatal("signal did not reach the table position")
	}
	w.shift()
	for k := 0; k <= 3; k++ {
		if len(w.at(k)) != 0 {
			t.Fatal("signal did not vanish past the table")
		}
	}
}

func TestRegEntry(t *testing.T) {
	ch := chain{id: 2}
	re := regEntry{valid: true, ch: ch, latency: 5, headLoc: 2}
	now := int64(0) // queue ticks; each tick below advances it by one
	if !re.outstandingAt(now) {
		t.Fatal("pending value should be outstanding")
	}
	// Promotion signals decrement head location but leave latency alone
	// (it is relative to head issue).
	re.observe(signal{ch: ch, typ: sigAdvance}, now)
	if re.headLoc != 1 || re.latencyAt(now) != 5 {
		t.Fatalf("after advance: %+v", re)
	}
	re.observe(signal{ch: ch, typ: sigAdvance}, now)
	re.observe(signal{ch: ch, typ: sigAdvance}, now) // issue
	if !re.selfTimed {
		t.Fatal("issue assertion should start self-timing")
	}
	now++
	if re.latencyAt(now) != 4 {
		t.Fatalf("latency = %d", re.latencyAt(now))
	}
	re.observe(signal{ch: ch, typ: sigSuspend}, now)
	now++
	if re.latencyAt(now) != 4 {
		t.Fatal("suspended row ticked")
	}
	re.observe(signal{ch: ch, typ: sigResume}, now)
	for i := 0; i < 10; i++ {
		now++
	}
	if re.latencyAt(now) != 0 {
		t.Fatalf("latency floor: %d", re.latencyAt(now))
	}
	if re.outstandingAt(now) {
		t.Fatal("self-timed zero-latency value is available for scheduling (§3.3)")
	}
	// Invalid rows ignore everything.
	var dead regEntry
	dead.observe(signal{ch: ch, typ: sigAdvance}, now)
	now++
	if dead.valid || dead.outstandingAt(now) {
		t.Fatal("invalid row changed state")
	}
}

func TestThreshold(t *testing.T) {
	// §3.1: bottom segment threshold 2, then 4, 6, 8...
	for k, want := range []int{2, 4, 6, 8, 10} {
		if got := threshold(k); got != want {
			t.Errorf("threshold(%d) = %d, want %d", k, got, want)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig(512, 128)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if good.Segments != 16 || good.SegSize != 32 || good.MaxChains != 128 {
		t.Fatalf("default geometry wrong: %+v", good)
	}
	if DefaultConfig(16, 0).Segments != 1 {
		t.Error("tiny queue should clamp to one segment")
	}

	bad := []Config{
		{Segments: 0, SegSize: 32, IssueWidth: 8, PredictedLoadLatency: 4},
		{Segments: 1, SegSize: 0, IssueWidth: 8, PredictedLoadLatency: 4},
		{Segments: 1, SegSize: 32, IssueWidth: 0, PredictedLoadLatency: 4},
		{Segments: 1, SegSize: 32, IssueWidth: 8, MaxChains: -1, PredictedLoadLatency: 4},
		{Segments: 1, SegSize: 32, IssueWidth: 8, PredictedLoadLatency: 0},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := New(bad[0]); err == nil {
		t.Error("New must validate")
	}
}

// Property: under any sequence of signals and ticks, a chainRef's delay
// and head location never go negative, and self-timed mode is absorbing
// for advance signals.
func TestChainRefInvariantProperty(t *testing.T) {
	f := func(ops []uint8, delay, headLoc uint8) bool {
		ch := chain{id: 1}
		cr := chainRef{ch: ch, delay: int(delay % 64), headLoc: int(headLoc % 16)}
		var now int64
		wasSelfTimed := false
		for _, op := range ops {
			switch op % 5 {
			case 0:
				cr.observe(signal{ch: ch, typ: sigAdvance}, now)
			case 1:
				cr.observe(signal{ch: ch, typ: sigSuspend}, now)
			case 2:
				cr.observe(signal{ch: ch, typ: sigResume}, now)
			case 3:
				now++
			case 4:
				cr.observe(signal{ch: chain{id: 2}, typ: sigAdvance}, now) // foreign
			}
			if cr.delayAt(now) < 0 || cr.headLoc < 0 {
				return false
			}
			if wasSelfTimed && !cr.selfTimed {
				return false // self-timed is absorbing
			}
			wasSelfTimed = cr.selfTimed
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a register-table row's latency never goes negative and a row
// that reaches self-timed zero latency reads as available forever.
func TestRegEntryInvariantProperty(t *testing.T) {
	f := func(ops []uint8, latency, headLoc uint8) bool {
		ch := chain{id: 3}
		re := regEntry{valid: true, ch: ch, latency: int(latency % 64), headLoc: int(headLoc % 16)}
		var now int64
		wasAvailable := false
		for _, op := range ops {
			switch op % 4 {
			case 0:
				re.observe(signal{ch: ch, typ: sigAdvance}, now)
			case 1:
				re.observe(signal{ch: ch, typ: sigSuspend}, now)
			case 2:
				re.observe(signal{ch: ch, typ: sigResume}, now)
			case 3:
				now++
			}
			if re.latencyAt(now) < 0 || re.headLoc < 0 {
				return false
			}
			avail := !re.outstandingAt(now)
			if wasAvailable && !avail {
				return false // availability is absorbing
			}
			wasAvailable = avail
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
