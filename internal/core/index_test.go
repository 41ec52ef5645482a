package core

import (
	"fmt"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/iq"
	"repro/internal/isa"
	"repro/internal/uop"
)

// checkIndex verifies the entry arena, the chain-wire indexes, entry
// summaries, promotable bits and crossing heap against the segments and
// the register table:
//   - arena: every slot's id is its index and boxed[h] is handle h; free
//     lists each handle once, and only empty slots (no instruction); every
//     other slot is live, and its instruction's IQ value names it;
//   - segments: every resident (live, on a segment) handle appears in
//     exactly one segment, at its recorded segment and pos; keys[k] is
//     segment k's entries' seq, strictly increasing; issued entries (live,
//     off the segments) appear in none;
//   - every entry's summary matches its refs; members holds exactly the
//     resident entries' memberships on real wires, each once, in the list
//     of its wire and its entry's segment, with matching slot
//     back-pointers; rows holds exactly the valid real-wire rows;
//   - no countdown reads negative; every promotable bit equals the delay
//     test recomputed from scratch; and every resident entry short of its
//     threshold with a future crossing has a live heap item at exactly that
//     tick.
//
// Valid between queue operations, not inside BeginCycle's promotion pass.
func (q *SegmentedIQ) checkIndex() error {
	if len(q.pos) != len(q.arena) || len(q.boxed) != len(q.arena) {
		return fmt.Errorf("arena holds %d slots, pos %d, boxed %d", len(q.arena), len(q.pos), len(q.boxed))
	}
	isFree := make([]bool, len(q.arena))
	for _, h := range q.free {
		if h < 0 || int(h) >= len(q.arena) || isFree[h] {
			return fmt.Errorf("free list holds handle %d twice or out of range", h)
		}
		isFree[h] = true
	}
	resident := 0
	for h := range q.arena {
		e := &q.arena[h]
		if int(e.id) != h || q.boxed[h] != any(handle(h)) {
			return fmt.Errorf("arena slot %d records id %d, boxed %v", h, e.id, q.boxed[h])
		}
		switch {
		case isFree[h] && e.u != nil:
			return fmt.Errorf("free handle %d holds instruction seq %d", h, e.u.Seq)
		case isFree[h]:
			continue
		case e.u == nil:
			return fmt.Errorf("handle %d is neither free nor live", h)
		case e.u.IQ != any(handle(h)):
			return fmt.Errorf("entry %d: its instruction seq %d names %v", h, e.u.Seq, e.u.IQ)
		}
		if e.seg >= 0 {
			resident++
		} else if e.u.IssueCycle == uop.NotYet {
			return fmt.Errorf("entry %d (seq %d) is off the segments but not issued", h, e.u.Seq)
		}
	}
	if resident != q.total {
		return fmt.Errorf("%d resident entries, queue counts %d", resident, q.total)
	}
	heap := make(map[iq.Deadline[int32]]bool, len(q.crossings))
	for _, it := range q.crossings {
		if it.At <= q.ticks {
			return fmt.Errorf("crossing heap holds %+v at tick %d: it should have been popped", it, q.ticks)
		}
		heap[it] = true
	}
	listed := 0
	want := 0
	for k, seg := range q.segs {
		keys := q.keys[k]
		if len(keys) != len(seg) {
			return fmt.Errorf("segment %d lists %d handles and %d keys", k, len(seg), len(keys))
		}
		// Both windows must sit at posOff in their buffers.
		if off := int(q.posOff[k]); off < 0 || off+len(seg) > len(q.segBuf[k]) ||
			cap(seg) != len(q.segBuf[k])-off || cap(keys) != len(q.keyBuf[k])-off ||
			(len(seg) > 0 && (&seg[0] != &q.segBuf[k][off] || &keys[0] != &q.keyBuf[k][off])) {
			return fmt.Errorf("segment %d window of %d at offset %d is not its buffers' window", k, len(seg), off)
		}
		for w, word := range q.eligW[k] {
			if stray := word &^ occupied(len(seg), w); stray != 0 || (k == 0 && word != 0) {
				return fmt.Errorf("segment %d promotable word %d = %#x with %d residents", k, w, word, len(seg))
			}
		}
		for i, h := range seg {
			if h < 0 || int(h) >= len(q.arena) || isFree[h] {
				return fmt.Errorf("segs[%d][%d] holds handle %d, not a live entry", k, i, h)
			}
			e := &q.arena[h]
			if e.seg != k || q.slot(k, h) != i {
				// A handle listed twice fails here at its second listing.
				return fmt.Errorf("entry %d (seq %d) at segs[%d][%d] records seg %d slot %d", h, e.u.Seq, k, i, e.seg, q.slot(k, h))
			}
			listed++
			if e.seq != e.u.Seq || keys[i] != e.seq {
				return fmt.Errorf("entry %d (seq %d) caches seq %d under key %d", h, e.u.Seq, e.seq, keys[i])
			}
			if i > 0 && keys[i-1] >= keys[i] {
				return fmt.Errorf("segment %d keys out of order at %d: %d then %d", k, i, keys[i-1], keys[i])
			}
			s := *e
			s.summarize()
			if s.last != e.last || s.frozen != e.frozen || s.wired != e.wired {
				return fmt.Errorf("entry seq %d summary last %d frozen %d wired %b, refs give %d %d %b",
					e.u.Seq, e.last, e.frozen, e.wired, s.last, s.frozen, s.wired)
			}
			for r := 0; r < e.nrefs; r++ {
				cr := &e.refs[r]
				if cr.delay < 0 || cr.delayAt(q.ticks) < 0 {
					return fmt.Errorf("entry seq %d ref %d reads negative: %+v", e.u.Seq, r, *cr)
				}
				if cr.running() && cr.delay != 0 {
					return fmt.Errorf("entry seq %d ref %d running with a frozen value: %+v", e.u.Seq, r, *cr)
				}
				if cr.ch.real() {
					want++
				}
			}
			if k == 0 {
				if e.cross != 0 {
					return fmt.Errorf("entry seq %d in segment 0 has a crossing at %d", e.u.Seq, e.cross)
				}
				continue
			}
			thr := threshold(k - 1)
			below := e.effDelay(q.ticks) < thr
			if got := bitvec.Test(q.eligW[k], i); got != below {
				return fmt.Errorf("entry seq %d in segment %d: promotable bit %v, delay %d against threshold %d", e.u.Seq, k, got, e.effDelay(q.ticks), thr)
			}
			// The crossing, recomputed by stepping the clock: the first
			// tick with delay below the threshold, if running countdowns
			// reach one.
			var at int64
			if !below {
				for t := q.ticks + 1; t <= q.ticks+int64(thr)+maxDue(e, q.ticks); t++ {
					if e.effDelay(t) < thr {
						at = t
						break
					}
				}
			}
			if e.cross != at {
				return fmt.Errorf("entry seq %d in segment %d records crossing %d, want %d", e.u.Seq, k, e.cross, at)
			}
			if at != 0 && !heap[iq.Deadline[int32]{At: at, V: h}] {
				return fmt.Errorf("entry seq %d in segment %d: no heap item at its crossing %d", e.u.Seq, k, at)
			}
		}
	}
	if listed != resident {
		// Every listed handle sits at its own recorded slot, so no handle
		// is listed twice; equal counts mean every resident one is listed.
		return fmt.Errorf("segments list %d handles, %d entries are resident", listed, resident)
	}
	if len(q.memberOcc) != bitvec.Words(len(q.members)) {
		return fmt.Errorf("memberOcc holds %d words for %d member lists", len(q.memberOcc), len(q.members))
	}
	got := 0
	for li, l := range q.members {
		w, k := li/q.cfg.Segments, li%q.cfg.Segments
		if bitvec.Test(q.memberOcc, li) != (len(l) > 0) {
			return fmt.Errorf("members[%d,%d] holds %d memberships, occupancy bit %v", w, k, len(l), bitvec.Test(q.memberOcc, li))
		}
		for j, m := range l {
			if m.h < 0 || int(m.h) >= len(q.arena) || isFree[m.h] {
				return fmt.Errorf("members[%d,%d][%d]: handle %d is not a live entry", w, k, j, m.h)
			}
			e := &q.arena[m.h]
			if e.seg < 0 {
				return fmt.Errorf("members[%d,%d][%d]: entry seq %d is not resident", w, k, j, e.u.Seq)
			}
			if e.seg != k {
				return fmt.Errorf("members[%d,%d][%d]: entry seq %d sits in segment %d", w, k, j, e.u.Seq, e.seg)
			}
			if e.u.IssueCycle != uop.NotYet {
				return fmt.Errorf("members[%d,%d][%d]: entry seq %d already issued", w, k, j, e.u.Seq)
			}
			if m.ref < 0 || int(m.ref) >= e.nrefs {
				return fmt.Errorf("members[%d,%d][%d]: ref %d beyond nrefs %d", w, k, j, m.ref, e.nrefs)
			}
			cr := &e.refs[m.ref]
			if cr.ch.id != w || int(cr.slot) != j {
				return fmt.Errorf("members[%d,%d][%d]: ref on wire %d at slot %d", w, k, j, cr.ch.id, cr.slot)
			}
			got++
		}
	}
	if got != want {
		// Slots are unique (each listed ref points back at its own slot),
		// so equal counts mean every membership is listed exactly once.
		return fmt.Errorf("members lists %d memberships, residents hold %d", got, want)
	}
	want, got = 0, 0
	for i := range q.table {
		re := &q.table[i]
		if re.latency < 0 || re.latencyAt(q.ticks) < 0 {
			return fmt.Errorf("row %d reads negative: %+v", i, *re)
		}
		if re.valid && re.ch.real() {
			want++
		}
	}
	for w, l := range q.rows {
		for j, i := range l {
			re := &q.table[i]
			if !re.valid || re.ch.id != w || int(re.slot) != j {
				return fmt.Errorf("rows[%d][%d]: row %d valid=%v on wire %d at slot %d", w, j, i, re.valid, re.ch.id, re.slot)
			}
			got++
		}
	}
	if got != want {
		return fmt.Errorf("rows lists %d rows, table holds %d valid real-wire rows", got, want)
	}
	return nil
}

// maxDue returns how far past now e's latest running deadline lies.
func maxDue(e *entry, now int64) int64 {
	var d int64
	for i := 0; i < e.nrefs; i++ {
		if cr := &e.refs[i]; cr.running() && cr.due-now > d {
			d = cr.due - now
		}
	}
	return d
}

// SegmentOf answers from the entry's own position: resident entries
// report their segment, an issued entry reports -1, and an entry deadlock
// recovery recycled reports the top segment it was placed in.
func TestSegmentOfAfterIssueAndRecycle(t *testing.T) {
	cfg := smallCfg(2, 1, 1)
	cfg.Bypass = false
	cfg.Pushdown = false
	q := MustNew(cfg)
	r := newTestRenamer()

	ld := r.rename(loadInst(isa.RegNone, 1))
	q.Dispatch(0, ld)
	if got := q.SegmentOf(ld); got != 1 {
		t.Fatalf("load dispatched into segment %d, want top 1", got)
	}
	q.BeginCycle(1)
	if got := q.SegmentOf(ld); got != 0 {
		t.Fatalf("load promoted to segment %d, want 0", got)
	}
	q.BeginCycle(2)
	if got := q.Issue(2, 1, always); len(got) != 1 {
		t.Fatal("load did not issue")
	}
	if got := q.SegmentOf(ld); got != -1 {
		t.Fatalf("issued load reports segment %d, want -1", got)
	}

	// The load never completes, so its consumer never becomes ready: the
	// queue wedges, recovery forces the consumer down, wedges again with
	// segment 0 full, and recycles the consumer to the top.
	con := r.rename(aluInst(1, isa.RegNone, 2))
	q.Dispatch(2, con)
	q.EndCycle(2, true)
	for c := int64(3); c <= 5; c++ {
		q.BeginCycle(c)
		q.EndCycle(c, false)
	}
	if got := q.SegmentOf(con); got != 0 {
		t.Fatalf("consumer in segment %d after forced promotion, want 0", got)
	}
	q.BeginCycle(6)
	if got := q.SegmentOf(con); got != 1 {
		t.Fatalf("recycled consumer reports segment %d, want top 1", got)
	}
	s := collect(q)
	if s.MustGet("deadlock_recoveries") != 2 {
		t.Fatalf("recoveries = %v, want 2", s.MustGet("deadlock_recoveries"))
	}
	if err := q.checkIndex(); err != nil {
		t.Fatal(err)
	}
}

// A head promoted in the same batch as a later member of its chain
// delivers its advance to that member exactly once: batch candidates are
// off-segment until placed, so only the by-hand delivery reaches them.
func TestBatchPromotionDeliversOnceToLaterCandidates(t *testing.T) {
	q := MustNew(smallCfg(3, 8, 8))
	ch, _ := q.chains.alloc()
	head := addRaw(q, 2, 0, 0, -1)
	head.isHead = true
	head.head = ch
	m := addRaw(q, 2, 1, 0, -1)
	m.refs[0] = chainRef{ch: ch, delay: 1, headLoc: 1}
	m.nrefs = 1
	q.link(m)

	q.BeginCycle(1)
	if head.seg != 1 || m.seg != 1 {
		t.Fatalf("head and member in segments %d and %d, want both promoted to 1", head.seg, m.seg)
	}
	if cr := m.refs[0]; cr.headLoc != 0 || cr.selfTimed || cr.delayAt(q.ticks) != 0 {
		t.Fatalf("member after one advance: %+v, want head location 0, not self-timed", cr)
	}
	if err := q.checkIndex(); err != nil {
		t.Fatal(err)
	}
}
