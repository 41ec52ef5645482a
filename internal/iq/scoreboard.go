package iq

import (
	"fmt"

	"repro/internal/uop"
)

// IssueGate returns the producer that gates operand j of u at issue, or
// nil when the operand does not gate issue. It mirrors uop.IssueReady: a
// store's data operand (j == 0) drains through the LSQ and never holds
// the instruction in the queue.
func IssueGate(u *uop.UOp, j int) *uop.UOp {
	if j == 0 && u.IsStore() {
		return nil
	}
	return u.Prod[j]
}

// none marks an empty handle link.
const none int32 = -1

// waiterTable indexes parked consumers by the producer they are waiting
// on: each producer heads an intrusive doubly-linked chain of handles,
// and the head lives in the producer itself (uop.UOp.WaitHead, the head
// handle plus one), so parking, unparking and waking touch no map.
// Handles are small caller-owned integers (queue slots, buffer tickets,
// entry ids). The table allocates nothing in steady state.
//
// Keeping the head in the producer is sound because a uop's waiters live
// in exactly one table: consumers are dispatched into the queue their
// producer was dispatched into, each engine has one queue, and each queue
// has one waiter table.
type waiterTable struct {
	// Per-handle chain state, indexed by handle.
	watching   []*uop.UOp // producer the handle is parked on (nil: not parked)
	next, prev []int32
	chains     int // producers whose chain is non-empty
}

// grow sizes the per-handle arrays for handles [0, n).
func (w *waiterTable) grow(n int) {
	for len(w.watching) < n {
		w.watching = append(w.watching, nil)
		w.next = append(w.next, none)
		w.prev = append(w.prev, none)
	}
}

// park links handle h onto p's waiter chain. h must not be parked.
func (w *waiterTable) park(h int32, p *uop.UOp) {
	head := p.WaitHead - 1
	w.watching[h] = p
	w.prev[h] = none
	w.next[h] = head
	if head != none {
		w.prev[head] = h
	} else {
		w.chains++
	}
	p.WaitHead = h + 1
}

// unpark removes h from its chain; a no-op if h is not parked.
func (w *waiterTable) unpark(h int32) {
	p := w.watching[h]
	if p == nil {
		return
	}
	w.watching[h] = nil
	nx, pv := w.next[h], w.prev[h]
	if pv != none {
		w.next[pv] = nx
	} else {
		p.WaitHead = nx + 1
		if nx == none {
			w.chains--
		}
	}
	if nx != none {
		w.prev[nx] = pv
	}
	w.next[h], w.prev[h] = none, none
}

// wakeAll unparks every handle waiting on p and appends them to buf. A
// nil p has no waiters.
func (w *waiterTable) wakeAll(p *uop.UOp, buf []int32) []int32 {
	if p == nil || p.WaitHead == 0 {
		return buf
	}
	head := p.WaitHead - 1
	p.WaitHead = 0
	w.chains--
	for h := head; h != none; {
		nx := w.next[h]
		w.watching[h] = nil
		w.next[h], w.prev[h] = none, none
		buf = append(buf, h)
		h = nx
	}
	return buf
}

// clone deep-copies the table, remapping producers through m. The chain
// heads travel with the producers: CloneMap.Get copies WaitHead.
func (w *waiterTable) clone(m *uop.CloneMap) waiterTable {
	n := waiterTable{
		watching: make([]*uop.UOp, len(w.watching)),
		next:     append([]int32(nil), w.next...),
		prev:     append([]int32(nil), w.prev...),
		chains:   w.chains,
	}
	for i, p := range w.watching {
		n.watching[i] = m.Get(p)
	}
	return n
}

// check verifies the chains against the producers that head them: every
// parked handle is reached from its producer's WaitHead through
// consistent links, and the chain count matches.
func (w *waiterTable) check() error {
	walked := make(map[*uop.UOp]bool)
	parked, reached := 0, 0
	for h, p := range w.watching {
		if p == nil {
			continue
		}
		parked++
		if walked[p] {
			continue
		}
		walked[p] = true
		if p.WaitHead == 0 {
			return fmt.Errorf("handle %d is parked on seq %d, which heads no chain", h, p.Seq)
		}
		prev := none
		for x := p.WaitHead - 1; x != none; prev, x = x, w.next[x] {
			if x < 0 || int(x) >= len(w.watching) || w.watching[x] != p {
				return fmt.Errorf("chain of seq %d reaches handle %d, not parked on it", p.Seq, x)
			}
			if w.prev[x] != prev {
				return fmt.Errorf("chain of seq %d: handle %d links back to %d, want %d", p.Seq, x, w.prev[x], prev)
			}
			if reached++; reached > parked+len(w.watching) {
				return fmt.Errorf("chain of seq %d does not terminate", p.Seq)
			}
		}
	}
	if reached != parked {
		return fmt.Errorf("chains reach %d handles, %d are parked", reached, parked)
	}
	if len(walked) != w.chains {
		return fmt.Errorf("%d producers head chains, the table counts %d", len(walked), w.chains)
	}
	return nil
}

// checkHead verifies that u heads no chain, or one whose head handle is
// parked on u (and so was walked by check). A nil u passes.
func (w *waiterTable) checkHead(u *uop.UOp) error {
	if u == nil || u.WaitHead == 0 {
		return nil
	}
	if h := u.WaitHead - 1; h < 0 || int(h) >= len(w.watching) || w.watching[h] != u {
		return fmt.Errorf("seq %d heads a chain at handle %d, which is not parked on it", u.Seq, h)
	}
	return nil
}

// Waiters exposes the producer→waiter chains on their own, for
// structures whose wakeup condition is not issue readiness. The distance
// scheme's wait buffer, for example, releases an instruction as soon as
// every operand's ready time is merely *known* — possibly still in the
// future — so the Scoreboard's ready/wheel classification does not apply.
// The caller owns re-evaluation: WakeAll just hands back the parked
// handles.
type Waiters struct {
	wt waiterTable
}

// Grow sizes the table for handles [0, n).
func (w *Waiters) Grow(n int) { w.wt.grow(n) }

// Park links handle h onto p's waiter chain. h must not be parked.
func (w *Waiters) Park(h int32, p *uop.UOp) { w.wt.park(h, p) }

// Unpark removes h from its chain; a no-op if h is not parked.
func (w *Waiters) Unpark(h int32) { w.wt.unpark(h) }

// WakeAll unparks every handle waiting on p and appends them to buf.
func (w *Waiters) WakeAll(p *uop.UOp, buf []int32) []int32 { return w.wt.wakeAll(p, buf) }

// Pending reports whether any handle is parked (test hook).
func (w *Waiters) Pending() bool { return w.wt.chains > 0 }

// Clone deep-copies the table with producers remapped through m.
func (w *Waiters) Clone(m *uop.CloneMap) Waiters { return Waiters{wt: w.wt.clone(m)} }

// wheelItem is a scheduled readiness delivery: handle h becomes ready at
// its cycle, unless its generation moved on (the handle was untracked).
type wheelItem struct {
	h   int32
	gen uint32
}

// Scoreboard tracks when queue-resident instructions become ready to
// issue, replacing per-cycle readiness rescans with event-driven wakeup.
//
// The contract with the queue protocol: producers resolve their
// completion time either before the consumer is tracked (engine-issued
// ALU ops carry Complete from their issue cycle) or at a Writeback /
// NotifyLoadComplete call, which both the simulator and the test
// harnesses deliver before BeginCycle of the completion cycle. Track
// therefore parks a consumer on its first unresolved producer and
// re-evaluates on Wake; completion times already known but in the future
// go to a timing wheel drained by Due. Readiness delivered this way is
// cycle-identical to rescanning IssueReady every cycle.
//
// Handles are caller-owned small integers; a handle must be Untracked
// before it is reused. All returned slices are scratch owned by the
// scoreboard, valid until the next call. Waiter chains are headed in the
// producers (uop.UOp.WaitHead), so a queue keeps one waiter table — one
// Scoreboard or one Waiters — for every instruction dispatched into it.
type Scoreboard struct {
	wt    waiterTable
	held  []*uop.UOp // per handle: the tracked instruction
	gen   []uint32   // per handle: bumped on Untrack; stales wheel items
	wheel Deadlines[wheelItem]
	out   []int32
}

// Grow sizes the scoreboard for handles [0, n).
func (s *Scoreboard) Grow(n int) {
	s.wt.grow(n)
	for len(s.held) < n {
		s.held = append(s.held, nil)
		s.gen = append(s.gen, 0)
	}
}

// evaluate classifies u's issue readiness: parked on a producer whose
// completion is unresolved, scheduled for a future cycle, or ready now.
func (s *Scoreboard) evaluate(h int32, u *uop.UOp, now int64) (ready bool) {
	readyAt := now
	for j := 0; j < 2; j++ {
		p := IssueGate(u, j)
		if p == nil {
			continue
		}
		if p.Complete == uop.NotYet {
			s.wt.park(h, p)
			return false
		}
		if p.Complete > readyAt {
			readyAt = p.Complete
		}
	}
	if readyAt > now {
		s.wheel.Push(readyAt, wheelItem{h: h, gen: s.gen[h]})
		return false
	}
	return true
}

// Track begins tracking handle h holding instruction u, and reports
// whether u is ready to issue already. If not, readiness will be
// delivered later by Wake or Due.
func (s *Scoreboard) Track(h int32, u *uop.UOp, now int64) bool {
	s.held[h] = u
	return s.evaluate(h, u, now)
}

// Untrack stops tracking h (the instruction issued or left the
// structure). Safe on parked, scheduled or ready handles.
func (s *Scoreboard) Untrack(h int32) {
	s.wt.unpark(h)
	s.held[h] = nil
	s.gen[h]++
}

// Wake tells the scoreboard that p's completion time resolved (its result
// was, or is scheduled to be, written back). It returns the handles that
// became ready this cycle; waiters with a later known completion move to
// the wheel, and waiters still blocked on another producer re-park.
func (s *Scoreboard) Wake(p *uop.UOp, now int64) []int32 {
	woken := s.out[:0]
	woken = s.wt.wakeAll(p, woken)
	ready := woken[:0]
	for _, h := range woken {
		if s.evaluate(h, s.held[h], now) {
			ready = append(ready, h)
		}
	}
	s.out = ready
	return ready
}

// Due returns the handles whose scheduled readiness cycle has arrived.
func (s *Scoreboard) Due(now int64) []int32 {
	ready := s.out[:0]
	for {
		d, ok := s.wheel.PopDue(now)
		if !ok {
			break
		}
		if it := d.V; it.gen == s.gen[it.h] {
			ready = append(ready, it.h)
		}
	}
	s.out = ready
	return ready
}

// Pending reports whether any handle is parked or scheduled (test hook).
func (s *Scoreboard) Pending() bool { return s.wt.chains > 0 || len(s.wheel) > 0 }

// CheckChains verifies the waiter chains against the producers heading
// them (test hook).
func (s *Scoreboard) CheckChains() error { return s.wt.check() }

// CheckHead verifies that u heads no stale chain (test hook).
func (s *Scoreboard) CheckHead(u *uop.UOp) error { return s.wt.checkHead(u) }

// Clone deep-copies the scoreboard with instructions remapped through m.
// Scratch storage is not carried over.
func (s *Scoreboard) Clone(m *uop.CloneMap) Scoreboard {
	n := Scoreboard{
		wt:    s.wt.clone(m),
		gen:   append([]uint32(nil), s.gen...),
		wheel: append(Deadlines[wheelItem](nil), s.wheel...),
	}
	n.held = make([]*uop.UOp, len(s.held))
	for i, u := range s.held {
		n.held[i] = m.Get(u)
	}
	return n
}
