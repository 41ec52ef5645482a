package pipeline

import (
	"repro/internal/bpred"
	"repro/internal/iq"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/uop"
)

// The pipeline structures hold in-flight instructions by pointer, so
// their clones remap every held uop through a shared uop.CloneMap —
// the cloned machine's layers then agree on the cloned identities, just
// as the originals share the original pointers. Collaborator structures
// (stream, predictors, caches, queue) are cloned by the engine first and
// passed in, since only it knows how they wire together.

// Clone returns a copy of the front end reading from stream and using the
// given already-cloned predictor, BTB and instruction cache. Buffered
// instructions are remapped through m. The clone starts with no released
// uops and with reuse off; its owner enables it (SetReuse).
func (f *FrontEnd) Clone(stream trace.Stream, bp *bpred.Predictor, btb *bpred.BTB, icache *mem.Cache, m *uop.CloneMap) *FrontEnd {
	n := NewFrontEnd(f.cfg, stream, bp, btb, icache)
	for i := 0; i < f.buf.len(); i++ {
		fe := f.buf.at(i)
		n.buf.push(fetched{u: m.Get(fe.u), readyAt: fe.readyAt})
	}
	n.pending, n.hasPending = f.pending, f.hasPending
	n.seq = f.seq
	n.done = f.done
	n.stalledOn = m.Get(f.stalledOn)
	n.icacheWait = f.icacheWait
	n.currentLine = f.currentLine
	n.haveLine = f.haveLine
	n.fetchedCount = f.fetchedCount
	n.branches = f.branches
	n.mispredicts = f.mispredicts
	n.btbMisses = f.btbMisses
	n.icacheStallCyc = f.icacheStallCyc
	n.branchStallCyc = f.branchStallCyc
	return n
}

// Clone returns a copy of the load/store queue over the already-cloned
// data cache, event queue and scheduler. Queue contents are remapped
// through m; the OnLoadDone hook is not copied (the owning engine rebinds
// it).
func (l *LSQ) Clone(l1d *mem.Cache, eq *mem.EventQueue, q iq.Queue, m *uop.CloneMap) *LSQ {
	n, _ := l.CloneCap(l1d, eq, q, m, l.capacity)
	return n
}

// CloneCap clones the load/store queue into a different capacity — the
// prefix-sharing refit path, where a sibling sweep point runs the same
// prefix under a tighter bound. The occupancy must fit; ok is false
// otherwise and the caller falls back to a cold fork.
func (l *LSQ) CloneCap(l1d *mem.Cache, eq *mem.EventQueue, q iq.Queue, m *uop.CloneMap, capacity int) (*LSQ, bool) {
	if l.entries.len() > capacity {
		return nil, false
	}
	n := NewLSQ(capacity, l1d, eq, q, l.rdPorts, l.wrPorts)
	for i := 0; i < l.entries.len(); i++ {
		n.entries.push(m.Get(l.entries.at(i)))
	}
	for i := 0; i < l.stores.len(); i++ {
		n.stores.push(m.Get(l.stores.at(i)))
	}
	for i := 0; i < l.writeQ.len(); i++ {
		n.writeQ.push(l.writeQ.at(i))
	}
	n.known = l.known
	n.addrWait = cloneUOps(l.addrWait, m)
	n.ready = cloneUOps(l.ready, m)
	for _, d := range l.dataWait {
		n.dataWait = append(n.dataWait, storeData{st: m.Get(d.st), prod: m.Get(d.prod), at: d.at})
	}
	n.forwards = l.forwards
	n.mshrRejects = l.mshrRejects
	n.loadsIssued = l.loadsIssued
	n.storeWrites = l.storeWrites
	n.blockedByStore = l.blockedByStore
	return n, true
}

// cloneUOps remaps a list of instructions through m.
func cloneUOps(us []*uop.UOp, m *uop.CloneMap) []*uop.UOp {
	if len(us) == 0 {
		return nil
	}
	n := make([]*uop.UOp, len(us))
	for i, u := range us {
		n[i] = m.Get(u)
	}
	return n
}

// Clone returns a copy of the reorder buffer with its contents remapped
// through m.
func (r *ROB) Clone(m *uop.CloneMap) *ROB {
	n := &ROB{ring: make([]*uop.UOp, len(r.ring)), head: r.head, n: r.n}
	for i, u := range r.ring {
		n.ring[i] = m.Get(u)
	}
	return n
}

// CloneCap clones the reorder buffer into a ring of a different capacity,
// re-laid with the oldest entry at slot zero. Ring position is invisible
// to the machine — only head/occupancy arithmetic matters — so the relaid
// copy commits identically. The occupancy must fit; ok is false otherwise.
func (r *ROB) CloneCap(m *uop.CloneMap, capacity int) (*ROB, bool) {
	if r.n > capacity {
		return nil, false
	}
	n := &ROB{ring: make([]*uop.UOp, capacity), head: 0, n: r.n}
	for i := 0; i < r.n; i++ {
		n.ring[i] = m.Get(r.ring[(r.head+i)%len(r.ring)])
	}
	return n, true
}

// Clone returns a copy of the rename table with its producer pointers
// remapped through m.
func (r *Renamer) Clone(m *uop.CloneMap) *Renamer {
	n := NewRenamer()
	for i, u := range r.last {
		n.last[i] = m.Get(u)
	}
	return n
}

// Clone returns an independent copy of the function-unit pools.
func (f *FUPool) Clone() *FUPool {
	n := new(FUPool)
	*n = *f
	for p := range f.units {
		n.units[p] = append([]int64(nil), f.units[p]...)
	}
	return n
}
