package mem

import (
	"fmt"
	"sync"
)

// Cloning the memory system copies its architectural state — tag/LRU
// arrays, dirty bits, link reservations, statistics — into a structure
// wired to a fresh event queue. Transient state cannot move across a
// clone: pending events, busy MSHRs and queued fetches hold closures
// bound to the original caches, so the hierarchy must be quiescent. The
// sweep harness only clones warmed machines at cycle zero, where
// quiescence holds by construction; Clone checks it anyway so a misuse
// fails loudly instead of dropping in-flight accesses.

// Clone returns a copy of the cache's architectural state wired to eq and
// lower. The cache must be idle: no busy MSHRs and no queued upper-level
// fetches.
func (c *Cache) Clone(eq *EventQueue, lower Supplier) (*Cache, error) {
	if c.mshrCount > 0 || c.pendingFetchLen() > 0 {
		return nil, fmt.Errorf("mem: %s: clone with %d busy MSHRs, %d pending fetches",
			c.cfg.Name, c.mshrCount, c.pendingFetchLen())
	}
	n, err := NewCache(c.cfg, eq, lower)
	if err != nil {
		return nil, err
	}
	copy(n.lines, c.lines)
	n.stamp = c.stamp
	n.linkFree = c.linkFree
	n.stats = c.stats
	n.mshrPeak = c.mshrPeak
	return n, nil
}

// Clone returns a copy of the memory channel state wired to eq.
func (m *MainMemory) Clone(eq *EventQueue) *MainMemory {
	n := new(MainMemory)
	*n = *m
	n.eq = eq
	return n
}

// Clone returns an independent copy of the whole hierarchy around a fresh
// event queue. The hierarchy must be quiescent: no pending events (and
// hence no in-flight fills anywhere in it).
func (h *Hierarchy) Clone() (*Hierarchy, error) {
	if h.EQ.Len() > 0 {
		return nil, fmt.Errorf("mem: clone with %d pending events", h.EQ.Len())
	}
	eq := &EventQueue{}
	mm := h.Mem.Clone(eq)
	l2, err := h.L2.Clone(eq, mm)
	if err != nil {
		return nil, err
	}
	l1i, err := h.L1I.Clone(eq, l2)
	if err != nil {
		return nil, err
	}
	l1d, err := h.L1D.Clone(eq, l2)
	if err != nil {
		return nil, err
	}
	return &Hierarchy{EQ: eq, L1I: l1i, L1D: l1d, L2: l2, Mem: mm}, nil
}

// Active cloning copies the hierarchy mid-flight — busy MSHRs, queued
// fetches and pending events included. It is possible because events are
// Refs, not closures: every Ref names its Handler and payload, so the
// clone re-points them at the cloned machine's structures through a Remap.
// The protocol has two phases, because a Ref's handler may live outside
// this package (the LSQ, the front end, the engine): CloneActive copies
// the structure and registers the cache-level identities, the caller then
// registers its own handler and payload mappings, and ResolveRemap
// finally rewrites every held Ref. A Ref whose handler or payload has no
// mapping — a PlainFunc test wrapper, say — fails resolution with an
// error.

// Remap carries the old→new identity mappings an active clone uses to
// re-point in-flight Refs at the cloned machine.
type Remap struct {
	handlers map[Handler]Handler
	mshrs    map[*mshr]*mshr
	targets  map[*mshrTarget]*mshrTarget
	// Arg resolves payloads foreign to this package (the engine's uops).
	// It must map nil to nil and error on anything it does not recognise.
	Arg func(arg any) (any, error)
}

// NewRemap returns an empty remap.
func NewRemap() *Remap {
	return &Remap{
		handlers: make(map[Handler]Handler),
		mshrs:    make(map[*mshr]*mshr),
		targets:  make(map[*mshrTarget]*mshrTarget),
	}
}

// RegisterHandler maps a handler identity to its clone.
func (rm *Remap) RegisterHandler(old, new Handler) { rm.handlers[old] = new }

// ResolveRef rewrites one Ref onto the cloned machine.
func (rm *Remap) ResolveRef(r Ref) (Ref, error) {
	h, ok := rm.handlers[r.H]
	if !ok {
		return Ref{}, fmt.Errorf("mem: remap: unmapped handler %T", r.H)
	}
	arg, err := rm.resolveArg(r.Arg)
	if err != nil {
		return Ref{}, err
	}
	return Ref{H: h, Op: r.Op, Arg: arg}, nil
}

// resolveArg rewrites an event payload. Hit-delivery targets are cloned
// lazily here — they are pooled structures reachable only through the
// events that carry them.
func (rm *Remap) resolveArg(a any) (any, error) {
	switch v := a.(type) {
	case nil:
		return nil, nil
	case *mshr:
		n, ok := rm.mshrs[v]
		if !ok {
			return nil, fmt.Errorf("mem: remap: unmapped mshr for line %#x", v.lineAddr)
		}
		return n, nil
	case *mshrTarget:
		if n, ok := rm.targets[v]; ok {
			return n, nil
		}
		ref, err := rm.ResolveRef(v.ref)
		if err != nil {
			return nil, err
		}
		n := &mshrTarget{write: v.write, kind: v.kind, ref: ref}
		rm.targets[v] = n
		return n, nil
	default:
		if rm.Arg == nil {
			return nil, fmt.Errorf("mem: remap: unmapped payload %T", a)
		}
		return rm.Arg(a)
	}
}

// cloneActive copies the cache verbatim — busy MSHRs and queued fetches
// included, their Refs still pointing at the old machine — and registers
// the mshr identities in rm. ResolveRemap rewrites the Refs afterwards.
func (c *Cache) cloneActive(eq *EventQueue, lower Supplier, rm *Remap) (*Cache, error) {
	n, err := NewCache(c.cfg, eq, lower)
	if err != nil {
		return nil, err
	}
	copy(n.lines, c.lines)
	n.stamp = c.stamp
	n.linkFree = c.linkFree
	n.stats = c.stats
	n.mshrPeak = c.mshrPeak
	// The generation counter must survive: in-flight LSQ rejection memos
	// are validated against it.
	n.gen = c.gen
	n.mshrCount = c.mshrCount
	for i, m := range c.mshrTab {
		if m == nil {
			continue
		}
		nm := &mshr{lineAddr: m.lineAddr}
		if len(m.targets) > 0 {
			nm.targets = append(nm.targets, m.targets...)
		}
		if len(m.upDones) > 0 {
			nm.upDones = append(nm.upDones, m.upDones...)
		}
		n.mshrTab[i] = nm
		n.mshrLine[i] = c.mshrLine[i]
		rm.mshrs[m] = nm
	}
	if pf := c.pendingFetches[c.pfHead:]; len(pf) > 0 {
		n.pendingFetches = append(n.pendingFetches, pf...)
	}
	rm.RegisterHandler(c, n)
	return n, nil
}

// resolveRemap rewrites the cloned cache's held Refs (mshr targets,
// upper-level dones, queued fetches) onto the cloned machine.
func (c *Cache) resolveRemap(rm *Remap) error {
	for _, m := range c.mshrTab {
		if m == nil {
			continue
		}
		for i := range m.targets {
			r, err := rm.ResolveRef(m.targets[i].ref)
			if err != nil {
				return err
			}
			m.targets[i].ref = r
		}
		for i := range m.upDones {
			r, err := rm.ResolveRef(m.upDones[i])
			if err != nil {
				return err
			}
			m.upDones[i] = r
		}
	}
	for i := range c.pendingFetches {
		r, err := rm.ResolveRef(c.pendingFetches[i].done)
		if err != nil {
			return err
		}
		c.pendingFetches[i].done = r
	}
	return nil
}

// cloneEvents copies the pending events verbatim (old Refs).
func (q *EventQueue) cloneEvents(from *EventQueue) {
	q.seq = from.seq
	q.h = append(q.h[:0], from.h...)
	q.refs = append(q.refs[:0], from.refs...)
	q.free = append(q.free[:0], from.free...)
}

// resolveRemap rewrites every pending event's Ref through rm; vacant
// slab slots hold the zero Ref and are skipped.
func (q *EventQueue) resolveRemap(rm *Remap) error {
	for i, ref := range q.refs {
		if ref.H == nil {
			continue
		}
		r, err := rm.ResolveRef(ref)
		if err != nil {
			return err
		}
		q.refs[i] = r
	}
	return nil
}

// linePools recycles cache line arrays across machine clones, one
// sync.Pool per array length so a pooled buffer always fits exactly.
// Snapshot-heavy sweeps (the prefix-sharing ladder, checkpoint forks)
// build and discard whole hierarchies in a loop; the line arrays are the
// bulk of each clone's bytes, and reusing them keeps the loop's
// footprint near the live set instead of growing with the fork count.
var linePools sync.Map // map[int]*sync.Pool of []cacheLine

func linePool(n int) *sync.Pool {
	if p, ok := linePools.Load(n); ok {
		return p.(*sync.Pool)
	}
	p, _ := linePools.LoadOrStore(n, new(sync.Pool))
	return p.(*sync.Pool)
}

// newLines returns a zeroed line array of length n, reusing a recycled
// buffer when one is available.
func newLines(n int) []cacheLine {
	if v := linePool(n).Get(); v != nil {
		s := v.([]cacheLine)
		clear(s)
		return s
	}
	return make([]cacheLine, n)
}

// Recycle returns the hierarchy's line arrays to the clone pool. The
// hierarchy must never be used again: its caches are left without
// storage on purpose, so a late access fails loudly instead of silently
// sharing state with a newer machine.
func (h *Hierarchy) Recycle() {
	for _, c := range []*Cache{h.L1I, h.L1D, h.L2} {
		if c.lines != nil {
			linePool(len(c.lines)).Put(c.lines)
			c.lines = nil
		}
	}
}

// CloneActive copies the hierarchy mid-flight: architectural state, busy
// MSHRs, queued upper-level fetches and the pending event list. The
// returned hierarchy's Refs still point at the old machine; the caller
// registers its own handler clones (LSQ, front end, engine) and a payload
// resolver in rm, then calls ResolveRemap on the result. Until then the
// clone must not be ticked.
func (h *Hierarchy) CloneActive(rm *Remap) (*Hierarchy, error) {
	eq := &EventQueue{}
	eq.cloneEvents(h.EQ)
	mm := h.Mem.Clone(eq)
	l2, err := h.L2.cloneActive(eq, mm, rm)
	if err != nil {
		return nil, err
	}
	l1i, err := h.L1I.cloneActive(eq, l2, rm)
	if err != nil {
		return nil, err
	}
	l1d, err := h.L1D.cloneActive(eq, l2, rm)
	if err != nil {
		return nil, err
	}
	return &Hierarchy{EQ: eq, L1I: l1i, L1D: l1d, L2: l2, Mem: mm}, nil
}

// ResolveRemap completes an active clone: every Ref held by the event
// queue, the caches' MSHRs and the queued fetches is rewritten onto the
// cloned machine. An unmapped handler or payload is an error, and the
// clone must then be discarded.
func (h *Hierarchy) ResolveRemap(rm *Remap) error {
	if err := h.EQ.resolveRemap(rm); err != nil {
		return err
	}
	for _, c := range []*Cache{h.L1I, h.L1D, h.L2} {
		if err := c.resolveRemap(rm); err != nil {
			return err
		}
	}
	return nil
}
