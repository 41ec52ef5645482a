package pipeline

import (
	"math"
	"slices"

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
//
// Tick's work follows events rather than occupancy. The queue learns of
// each address calculation when it issues (IssueAddress) and acts on it
// when it finishes; from then on a load waits in ready until it accesses
// the cache or forwards, and a store waits in dataWait until its data is
// ready. Loads behind the oldest store whose address is still unknown
// are only counted (blockedByStore), never visited.
type LSQ struct {
	capacity int
	entries  ring[*uop.UOp] // resident memory instructions, program order
	writeQ   ring[memWrite] // retired stores awaiting cache write
	l1d      *mem.Cache
	eq       *mem.EventQueue
	q        iq.Queue

	// stores lists the resident stores in program order; the first known
	// of them have known addresses, so the store at known (if any) is the
	// oldest whose address is not: it blocks every younger load.
	stores ring[*uop.UOp]
	known  int
	// addrWait holds memory instructions whose address calculation issued
	// but has not finished, in issue order.
	addrWait []*uop.UOp
	// ready holds the loads whose address is known and that have neither
	// accessed the cache nor forwarded, in program order.
	ready []*uop.UOp
	// dataWait holds the stores whose address is known and whose data is
	// not yet ready.
	dataWait []storeData

	rdPorts       int
	wrPorts       int
	missDetectLat int64

	// OnLoadDone, if set, runs when a load's data arrives (after the IQ
	// notifications).
	OnLoadDone func(cycle int64, u *uop.UOp)

	// cover indexes the bytes written by retired writes and known-address
	// stores, keyed by 16-byte block; Tick builds it, in program order,
	// only as far as the loads that consult it need.
	cover coverTab
	// coverEpoch identifies the coverage index's sources: it advances
	// whenever the set of retired writes or resident stores changes, so a
	// load's negative forwarding check (uop.FwdKey) can be reused while
	// the epoch — and the count of stores ahead of the load — is
	// unchanged. Starts at 1 so a zero FwdKey never matches.
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

// storeData is a store waiting for its data operand: its producer and,
// once the producer has one, the producer's completion cycle (NotYet
// before). Completion cycles are stamped once, so Tick reads each
// producer only until it learns the cycle.
type storeData struct {
	st, prod *uop.UOp
	at       int64
}

// ring is a growable FIFO: push at the tail, pop at the head, index from
// the head. Its capacity stays a power of two.
type ring[T any] struct {
	buf     []T
	head, n int
}

func (r *ring[T]) len() int { return r.n }

// at returns the i-th element from the head.
func (r *ring[T]) at(i int) T { return r.buf[(r.head+i)&(len(r.buf)-1)] }

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		nb := make([]T, max(8, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			nb[i] = r.at(i)
		}
		r.buf, r.head = nb, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// pop removes and returns the head.
func (r *ring[T]) pop() T {
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
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
		cover:         newCoverTab(),
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
func (l *LSQ) Full() bool { return l.entries.len() >= l.capacity }

// Len returns the number of in-flight memory instructions.
func (l *LSQ) Len() int { return l.entries.len() }

// Busy reports whether retired stores are still draining.
func (l *LSQ) Busy() bool { return l.writeQ.len() > 0 }

// Add enqueues a dispatched memory instruction (program order).
func (l *LSQ) Add(u *uop.UOp) {
	if l.Full() {
		panic("pipeline: add to full LSQ")
	}
	l.entries.push(u)
	if u.IsStore() {
		l.stores.push(u)
	}
}

// IssueAddress records that memory instruction u's effective-address
// calculation issued and that its address is known from cycle at; it sets
// u.EADone. Tick acts on the address from then on.
func (l *LSQ) IssueAddress(u *uop.UOp, at int64) {
	u.EADone = at
	l.addrWait = append(l.addrWait, u)
}

// Remove deletes a committed memory instruction, the oldest resident one,
// from the queue. Stores move their pending write to the post-retirement
// queue via CommitStore.
func (l *LSQ) Remove(u *uop.UOp) {
	if l.entries.len() == 0 || l.entries.at(0) != u {
		panic("pipeline: LSQ commit out of program order")
	}
	l.entries.pop()
	if u.IsStore() {
		// The oldest resident store.
		l.stores.pop()
		if l.known > 0 {
			l.known--
		}
		l.coverEpoch++ // a resident store leaving may shrink the coverage index
	}
}

// CommitStore retires a store: its write drains to the cache in the
// background.
func (l *LSQ) CommitStore(u *uop.UOp) {
	l.Remove(u)
	l.writeQ.push(memWrite{addr: u.Inst.Addr, size: u.Inst.Size})
	l.coverEpoch++
}

func overlap(a1 uint64, s1 uint8, a2 uint64, s2 uint8) bool {
	return a1 < a2+uint64(s2) && a2 < a1+uint64(s1)
}

// coverEmpty marks a free slot in coverTab. A key is an address shifted
// right by four, so no real block can equal it.
const coverEmpty = ^uint64(0)

// coverTab maps 16-byte block numbers to byte-coverage bitmasks. The
// forwarding index is rebuilt every Tick that a load consults it, which
// makes a Go map's hashing the dominant cost when many loads queue behind
// a full MSHR file — so this is a flat open-addressed table instead:
// Fibonacci hashing, linear probing, no tombstones (entries only
// accumulate between resets). filled lists the occupied slots, so a reset
// costs the slots used, not the table's size. Slot layout is a pure
// function of the insertion sequence, so two runs that execute the same
// Ticks end bit-identical.
type coverTab struct {
	keys   []uint64
	vals   []uint16
	filled []int32
	shift  uint // 64 - log2(len(keys)); the hash keeps the top bits
}

func newCoverTab() coverTab {
	t := coverTab{keys: make([]uint64, 64), vals: make([]uint16, 64), shift: 58}
	for i := range t.keys {
		t.keys[i] = coverEmpty
	}
	return t
}

func (t *coverTab) reset() {
	for _, i := range t.filled {
		t.keys[i] = coverEmpty
	}
	t.filled = t.filled[:0]
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
			t.filled = append(t.filled, int32(i))
			if len(t.filled)*4 > len(t.keys)*3 {
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
	oldKeys, oldVals, oldFilled := t.keys, t.vals, t.filled
	t.keys = make([]uint64, 2*len(oldKeys))
	t.vals = make([]uint16, 2*len(oldVals))
	t.filled = make([]int32, 0, 2*cap(oldFilled))
	t.shift--
	for i := range t.keys {
		t.keys[i] = coverEmpty
	}
	// Reinsertion cannot re-trigger grow: the table is at most 3/8 full
	// at the doubled capacity.
	for _, i := range oldFilled {
		t.or(oldKeys[i], oldVals[i])
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

// Tick drains retired store writes, stamps the completion of stores whose
// address and data are known, and initiates eligible load accesses,
// bounded by the cache read/write ports.
func (l *LSQ) Tick(cycle int64) {
	// Post-retirement store writes.
	wr := 0
	for wr < l.wrPorts && l.writeQ.len() > 0 {
		w := l.writeQ.at(0)
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
		l.writeQ.pop()
		l.storeWrites++
		l.coverEpoch++ // the drained write leaves the coverage index
		wr++
	}

	l.resolveAddresses(cycle)

	// A store retires once both its address and its data are known; the
	// EA issued on the address alone. The list is unordered, so a stamped
	// store is swapped out, and a waiting one costs no write.
	for i := 0; i < len(l.dataWait); {
		d := &l.dataWait[i]
		if d.at == uop.NotYet {
			d.at = d.prod.Complete
		}
		if d.at == uop.NotYet || d.at > cycle {
			i++
			continue
		}
		d.st.Complete = cycle
		last := len(l.dataWait) - 1
		l.dataWait[i] = l.dataWait[last]
		l.dataWait[last] = storeData{}
		l.dataWait = l.dataWait[:last]
	}

	// Loads, oldest first. An older store with an unknown address blocks
	// every younger load (conservative disambiguation, §5).
	for l.known < l.stores.len() && addrKnown(l.stores.at(l.known), cycle) {
		l.known++
	}
	blockedFrom := int64(math.MaxInt64)
	if l.known < l.stores.len() {
		blockedFrom = l.stores.at(l.known).Seq
	}
	// Forwarding only needs "does any older store write a byte this load
	// reads", so instead of scanning the store list per load, Tick keeps
	// a byte-coverage index: retired writes seed it (they are older than
	// every in-flight load), and the stores ahead of each load are added
	// as the loads are visited in program order, so a load's query sees
	// exactly the stores that precede it. The index is built only when a
	// load has no valid memo.
	covered := -1 // stores in the index this Tick; -1: not built yet
	rd := 0
	// Loads that stay are compacted toward the front, written only when
	// an earlier one has left.
	w, i := 0, 0
	for ; i < len(l.ready); i++ {
		u := l.ready[i]
		if u.Seq > blockedFrom {
			l.blockedByStore += uint64(len(l.ready) - i)
			break
		}
		if !l.startLoad(u, cycle, &covered, &rd) {
			if w != i {
				l.ready[w] = u
			}
			w++
		}
	}
	if w != i {
		n := copy(l.ready[w:], l.ready[i:])
		clear(l.ready[w+n:])
		l.ready = l.ready[:w+n]
	}
}

// startLoad makes a ready, unblocked load's attempt of the cycle: a
// store-to-load forward, or a cache access if a read port is left
// (*rd counts those used). It reports whether the load is on its way.
// *covered counts the stores in the coverage index this Tick (-1: not
// built yet).
func (l *LSQ) startLoad(u *uop.UOp, cycle int64, covered, rd *int) bool {
	// ahead counts the stores older than the load; all of them have known
	// addresses. A load's view of the index is fully identified by
	// (coverEpoch, ahead), the load's forwarding-memo key (uop.FwdKey).
	ahead := l.storesBefore(u.Seq)
	fwdKey := l.coverEpoch<<16 | uint64(ahead)
	if u.FwdKey != fwdKey {
		if *covered < 0 {
			l.cover.reset()
			for j := 0; j < l.writeQ.len(); j++ {
				w := l.writeQ.at(j)
				addCover(&l.cover, w.addr, w.size)
			}
			*covered = 0
		}
		for ; *covered < ahead; *covered++ {
			st := l.stores.at(*covered)
			addCover(&l.cover, st.Inst.Addr, st.Inst.Size)
		}
		if hitCover(&l.cover, u.Inst.Addr, u.Inst.Size) {
			l.forwards++
			u.MemKind = uop.MemHit
			u.Complete = cycle + 1
			l.eq.ScheduleRef(cycle+1, mem.Ref{H: l, Op: lsqOpFwdDone, Arg: u})
			return true
		}
		u.FwdKey = fwdKey
	}
	if *rd >= l.rdPorts {
		return false
	}
	if u.RejGen != 0 && u.RejGen == l.l1d.AcceptGen() {
		// The cache has neither accepted nor released anything since
		// this load's last rejected attempt, so the attempt repeats
		// verbatim: count the rejection on both sides without
		// re-walking the tag array and MSHR file.
		l.mshrRejects++
		l.l1d.SkipMSHRRejects(1)
		return false
	}
	kind, ok := l.l1d.AccessRefKind(cycle, u.Inst.Addr, false, mem.Ref{H: l, Op: lsqOpLoadDone, Arg: u})
	if !ok {
		l.mshrRejects++
		u.RejGen = l.l1d.AcceptGen()
		return false
	}
	*rd++
	l.loadsIssued++
	u.MemKind = int8(kind) // provisional; overwritten at completion
	if kind != mem.KindHit {
		// The miss is detected after the tag lookup: suspend the load's
		// chain (§3.4).
		l.eq.ScheduleRef(cycle+l.missDetectLat, mem.Ref{H: l, Op: lsqOpMissNotif, Arg: u})
	}
	return true
}

// addrKnown reports whether u's address is known at cycle.
func addrKnown(u *uop.UOp, cycle int64) bool {
	return u.EADone != uop.NotYet && u.EADone <= cycle
}

// resolveAddresses moves the address calculations finished by cycle out
// of addrWait: a store whose data is still outstanding joins dataWait, a
// load still waiting to access joins ready at its program-order place.
func (l *LSQ) resolveAddresses(cycle int64) {
	w := 0
	for _, u := range l.addrWait {
		switch {
		case !addrKnown(u, cycle):
			l.addrWait[w] = u
			w++
		case u.IsStore():
			if u.Complete == uop.NotYet {
				d := storeData{st: u, prod: u.Prod[0], at: uop.NotYet}
				if d.prod == nil {
					d.at = 0 // the data was available at dispatch
				}
				l.dataWait = append(l.dataWait, d)
			}
		case u.Complete == uop.NotYet && u.MemKind == uop.MemNone:
			// Addresses mostly finish in program order: search from the
			// young end.
			i := len(l.ready)
			for i > 0 && l.ready[i-1].Seq > u.Seq {
				i--
			}
			l.ready = append(l.ready, nil)
			copy(l.ready[i+1:], l.ready[i:])
			l.ready[i] = u
		}
	}
	clear(l.addrWait[w:])
	l.addrWait = l.addrWait[:w]
}

// storesBefore returns the number of resident stores older than sequence
// number seq, a binary search over the program-ordered store list.
func (l *LSQ) storesBefore(seq int64) int {
	lo, hi := 0, l.stores.len()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if l.stores.at(mid).Seq < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (l *LSQ) finishLoad(t int64, u *uop.UOp) {
	l.q.NotifyLoadComplete(t, u)
	l.q.Writeback(t, u)
	if l.OnLoadDone != nil {
		l.OnLoadDone(t, u)
	}
}

// Refers reports whether any of the queue's lists names u (a checking
// aid for uop reuse).
func (l *LSQ) Refers(u *uop.UOp) bool {
	for i := 0; i < l.entries.len(); i++ {
		if l.entries.at(i) == u {
			return true
		}
	}
	for i := 0; i < l.stores.len(); i++ {
		if l.stores.at(i) == u {
			return true
		}
	}
	for _, d := range l.dataWait {
		if d.st == u || d.prod == u {
			return true
		}
	}
	return slices.Contains(l.addrWait, u) || slices.Contains(l.ready, u)
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
