package pipeline

import (
	"repro/internal/iq"
	"repro/internal/mem"
	"repro/internal/uop"
)

// LSQ is the load/store queue. As in the paper's simulator (§5), memory
// instructions split at dispatch: the effective-address calculation is
// scheduled by the IQ as an ordinary integer operation, and the access
// itself lives here. A load may access the cache once its address is
// known, every older store's address is known, and no older store
// overlaps; an overlapping older store forwards its data in one cycle.
// Store data is written to the cache after commit from a post-retirement
// write queue.
type LSQ struct {
	capacity int
	entries  []*uop.UOp // program order
	writeQ   []memWrite // retired stores awaiting cache write
	l1d      *mem.Cache
	eq       *mem.EventQueue
	q        iq.Queue

	rdPorts       int
	wrPorts       int
	missDetectLat int64

	// OnLoadDone, if set, runs when a load's data arrives (after the IQ
	// notifications).
	OnLoadDone func(cycle int64, u *uop.UOp)

	// cover indexes the bytes written by forwarding-eligible stores,
	// keyed by 16-byte block; rebuilt each Tick (see the walk).
	cover *coverTab
	// coverEpoch identifies the coverage index's sources: it advances
	// whenever the set of retired writes or resident stores changes, so a
	// load's negative forwarding check (uop.FwdKey) can be reused while
	// the epoch — and the count of stores contributing ahead of the load —
	// is unchanged. Starts at 1 so a zero FwdKey never matches.
	coverEpoch uint64
	// wqRejGen memoises the head retired write bouncing off a full MSHR
	// file, against the cache's acceptance generation (see uop.RejGen for
	// the same idea on loads). Zero when the head write was not rejected.
	wqRejGen uint64

	forwards       uint64
	mshrRejects    uint64
	loadsIssued    uint64
	storeWrites    uint64
	blockedByStore uint64
}

type memWrite struct {
	addr uint64
	size uint8
}

// NewLSQ builds a load/store queue of the given capacity over l1d.
func NewLSQ(capacity int, l1d *mem.Cache, eq *mem.EventQueue, q iq.Queue, rdPorts, wrPorts int) *LSQ {
	return &LSQ{
		capacity:      capacity,
		l1d:           l1d,
		eq:            eq,
		q:             q,
		rdPorts:       rdPorts,
		wrPorts:       wrPorts,
		missDetectLat: int64(l1d.Config().HitLatency),
		coverEpoch:    1,
	}
}

// LSQ event ops (mem.Handler dispatch codes). Tick schedules events
// carrying the load as the argument instead of building a closure per
// access, and the identifiable form lets an active clone remap them.
const (
	// lsqOpLoadDone (arg *uop.UOp): the load's data arrived; k is the
	// service kind.
	lsqOpLoadDone uint8 = iota
	// lsqOpFwdDone (arg *uop.UOp): a store-to-load forward completes.
	lsqOpFwdDone
	// lsqOpMissNotif (arg *uop.UOp): miss detected at tag-lookup time —
	// signal the IQ to suspend the load's chain (§3.4).
	lsqOpMissNotif
	// lsqOpStoreDrain (arg nil): a retired store's cache write finished;
	// nothing to record.
	lsqOpStoreDrain
)

// HandleEvent implements mem.Handler.
func (l *LSQ) HandleEvent(op uint8, t int64, k mem.Kind, arg any) {
	switch op {
	case lsqOpLoadDone:
		u := arg.(*uop.UOp)
		u.Complete = t
		u.MemKind = int8(k)
		l.finishLoad(t, u)
	case lsqOpFwdDone:
		l.finishLoad(t, arg.(*uop.UOp))
	case lsqOpMissNotif:
		l.q.NotifyLoadMiss(t, arg.(*uop.UOp))
	case lsqOpStoreDrain:
	}
}

// Full reports whether another memory instruction can be accepted.
func (l *LSQ) Full() bool { return len(l.entries) >= l.capacity }

// Len returns the number of in-flight memory instructions.
func (l *LSQ) Len() int { return len(l.entries) }

// Busy reports whether retired stores are still draining.
func (l *LSQ) Busy() bool { return len(l.writeQ) > 0 }

// Add enqueues a dispatched memory instruction (program order).
func (l *LSQ) Add(u *uop.UOp) {
	if l.Full() {
		panic("pipeline: add to full LSQ")
	}
	l.entries = append(l.entries, u)
}

// Remove deletes a committed memory instruction from the queue. Stores
// move their pending write to the post-retirement queue via CommitStore.
func (l *LSQ) Remove(u *uop.UOp) {
	if u.IsStore() {
		l.coverEpoch++ // a resident store leaving may shrink the coverage index
	}
	for i, e := range l.entries {
		if e == u {
			l.entries = append(l.entries[:i], l.entries[i+1:]...)
			return
		}
	}
}

// CommitStore retires a store: its write drains to the cache in the
// background.
func (l *LSQ) CommitStore(u *uop.UOp) {
	l.Remove(u)
	l.writeQ = append(l.writeQ, memWrite{addr: u.Inst.Addr, size: u.Inst.Size})
	l.coverEpoch++
}

func overlap(a1 uint64, s1 uint8, a2 uint64, s2 uint8) bool {
	return a1 < a2+uint64(s2) && a2 < a1+uint64(s1)
}

// coverEmpty marks a free slot in coverTab. A key is an address shifted
// right by four, so no real block can equal it.
const coverEmpty = ^uint64(0)

// coverTab maps 16-byte block numbers to byte-coverage bitmasks. The
// forwarding index is rebuilt from scratch every Tick, which makes a Go
// map's hashing the dominant cost when many loads queue behind a full
// MSHR file — so this is a flat open-addressed table instead: Fibonacci
// hashing, linear probing, no tombstones (entries only accumulate
// between resets). Slot layout is a pure function of the insertion
// sequence, so two runs that execute the same Ticks end bit-identical.
type coverTab struct {
	keys  []uint64
	vals  []uint16
	used  int
	shift uint // 64 - log2(len(keys)); the hash keeps the top bits
}

func newCoverTab() *coverTab {
	t := &coverTab{keys: make([]uint64, 64), vals: make([]uint16, 64), shift: 58}
	for i := range t.keys {
		t.keys[i] = coverEmpty
	}
	return t
}

func (t *coverTab) reset() {
	for i := range t.keys {
		t.keys[i] = coverEmpty
	}
	t.used = 0
}

func (t *coverTab) or(b uint64, bits uint16) {
	mask := uint64(len(t.keys) - 1)
	for i := (b * 0x9E3779B97F4A7C15) >> t.shift; ; i = (i + 1) & mask {
		switch t.keys[i] {
		case b:
			t.vals[i] |= bits
			return
		case coverEmpty:
			t.keys[i] = b
			t.vals[i] = bits
			t.used++
			if t.used*4 > len(t.keys)*3 {
				t.grow()
			}
			return
		}
	}
}

func (t *coverTab) get(b uint64) uint16 {
	mask := uint64(len(t.keys) - 1)
	for i := (b * 0x9E3779B97F4A7C15) >> t.shift; ; i = (i + 1) & mask {
		switch t.keys[i] {
		case b:
			return t.vals[i]
		case coverEmpty:
			return 0
		}
	}
}

func (t *coverTab) grow() {
	oldKeys, oldVals := t.keys, t.vals
	t.keys = make([]uint64, 2*len(oldKeys))
	t.vals = make([]uint16, 2*len(oldVals))
	t.shift--
	t.used = 0
	for i := range t.keys {
		t.keys[i] = coverEmpty
	}
	// Reinsertion cannot re-trigger grow: used is at most 3/8 of the
	// doubled capacity.
	for i, k := range oldKeys {
		if k != coverEmpty {
			t.or(k, oldVals[i])
		}
	}
}

// addCover marks the bytes [addr, addr+size) in the block coverage index.
func addCover(t *coverTab, addr uint64, size uint8) {
	end := addr + uint64(size) - 1
	for b := addr >> 4; b <= end>>4; b++ {
		lo, hi := uint64(0), uint64(15)
		if b == addr>>4 {
			lo = addr & 15
		}
		if b == end>>4 {
			hi = end & 15
		}
		t.or(b, uint16(1)<<(hi+1)-uint16(1)<<lo)
	}
}

// hitCover reports whether any byte of [addr, addr+size) is covered.
func hitCover(t *coverTab, addr uint64, size uint8) bool {
	end := addr + uint64(size) - 1
	for b := addr >> 4; b <= end>>4; b++ {
		w := t.get(b)
		if w == 0 {
			continue
		}
		lo, hi := uint64(0), uint64(15)
		if b == addr>>4 {
			lo = addr & 15
		}
		if b == end>>4 {
			hi = end & 15
		}
		if w&(uint16(1)<<(hi+1)-uint16(1)<<lo) != 0 {
			return true
		}
	}
	return false
}

// Tick drains retired store writes and initiates eligible load accesses,
// bounded by the cache read/write ports.
func (l *LSQ) Tick(cycle int64) {
	// Post-retirement store writes.
	wr := 0
	for wr < l.wrPorts && len(l.writeQ) > 0 {
		w := l.writeQ[0]
		if l.wqRejGen != 0 && l.wqRejGen == l.l1d.AcceptGen() {
			// The head write bounced off a full MSHR file and the cache
			// has neither accepted nor released anything since: the retry
			// repeats verbatim, so only the cache-side reject counts.
			l.l1d.SkipMSHRRejects(1)
			break
		}
		if !l.l1d.AccessRef(cycle, w.addr, true, mem.Ref{H: l, Op: lsqOpStoreDrain}) {
			l.wqRejGen = l.l1d.AcceptGen()
			break // MSHRs full: retry next cycle
		}
		l.wqRejGen = 0
		l.writeQ = l.writeQ[1:]
		l.storeWrites++
		l.coverEpoch++ // the drained write leaves the coverage index
		wr++
	}

	// Loads, oldest first. An older store with an unknown address blocks
	// every younger load (conservative disambiguation, §5).
	//
	// Forwarding only needs "does any older store write a byte this load
	// reads", so instead of scanning the store list per load, the walk
	// maintains a byte-coverage index: retired writes seed it (they are
	// older than every in-flight load), and each known-address store adds
	// its bytes as the walk passes it, so a load's query sees exactly the
	// stores that precede it in program order.
	rd := 0
	unknownStore := false
	if l.cover == nil {
		l.cover = newCoverTab()
	}
	l.cover.reset()
	for _, w := range l.writeQ {
		addCover(l.cover, w.addr, w.size)
	}
	// contrib counts the stores added to the index so far: a load's view
	// of the index is fully identified by (coverEpoch, contrib), which is
	// the load's forwarding-memo key (uop.FwdKey).
	contrib := uint64(0)
	for _, u := range l.entries {
		if u.IsStore() {
			if u.EADone == uop.NotYet || u.EADone > cycle {
				unknownStore = true
			} else {
				addCover(l.cover, u.Inst.Addr, u.Inst.Size)
				contrib++
				// A store retires once both its address and its data are
				// known; the EA issued on the address alone.
				if u.Complete == uop.NotYet && u.OperandReady(0, cycle) {
					u.Complete = cycle
				}
			}
			continue
		}
		if !u.IsLoad() || u.Complete != uop.NotYet || u.MemKind != uop.MemNone {
			continue
		}
		if u.EADone == uop.NotYet || u.EADone > cycle {
			continue
		}
		if unknownStore {
			l.blockedByStore++
			continue
		}
		// The index the load sees changes only when the epoch advances (a
		// write or store entered or left) or a store ahead of it resolved
		// its address; a memoised negative check stays negative until then.
		fwdKey := l.coverEpoch<<16 | contrib
		if u.FwdKey != fwdKey {
			if hitCover(l.cover, u.Inst.Addr, u.Inst.Size) {
				l.forwards++
				u.MemKind = uop.MemHit
				u.Complete = cycle + 1
				l.eq.ScheduleRef(cycle+1, mem.Ref{H: l, Op: lsqOpFwdDone, Arg: u})
				continue
			}
			u.FwdKey = fwdKey
		}
		if rd >= l.rdPorts {
			continue
		}
		if u.RejGen != 0 && u.RejGen == l.l1d.AcceptGen() {
			// The cache has neither accepted nor released anything since
			// this load's last rejected attempt, so the attempt repeats
			// verbatim: count the rejection on both sides without
			// re-walking the tag array and MSHR file.
			l.mshrRejects++
			l.l1d.SkipMSHRRejects(1)
			continue
		}
		kind, ok := l.l1d.AccessRefKind(cycle, u.Inst.Addr, false, mem.Ref{H: l, Op: lsqOpLoadDone, Arg: u})
		if !ok {
			l.mshrRejects++
			u.RejGen = l.l1d.AcceptGen()
			continue
		}
		rd++
		l.loadsIssued++
		u.MemKind = int8(kind) // provisional; overwritten at completion
		if kind != mem.KindHit {
			// The miss is detected after the tag lookup: suspend the
			// load's chain (§3.4).
			l.eq.ScheduleRef(cycle+l.missDetectLat, mem.Ref{H: l, Op: lsqOpMissNotif, Arg: u})
		}
	}
}

func (l *LSQ) finishLoad(t int64, u *uop.UOp) {
	l.q.NotifyLoadComplete(t, u)
	l.q.Writeback(t, u)
	if l.OnLoadDone != nil {
		l.OnLoadDone(t, u)
	}
}

// Forwards returns the number of store-to-load forwards.
func (l *LSQ) Forwards() uint64 { return l.forwards }

// MSHRRejects returns load issue attempts bounced by a full MSHR file.
func (l *LSQ) MSHRRejects() uint64 { return l.mshrRejects }

// LoadsIssued returns the number of cache load accesses initiated.
func (l *LSQ) LoadsIssued() uint64 { return l.loadsIssued }

// StoreWrites returns the number of retired store writes performed.
func (l *LSQ) StoreWrites() uint64 { return l.storeWrites }

// BlockedByStore returns load-cycles spent waiting on unresolved older
// store addresses.
func (l *LSQ) BlockedByStore() uint64 { return l.blockedByStore }
