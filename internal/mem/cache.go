package mem

import "fmt"

// Kind classifies how an access was serviced, from the requester's point
// of view.
type Kind uint8

const (
	// KindHit: the line was present; data after the hit latency.
	KindHit Kind = iota
	// KindDelayedHit: the line was already being fetched; the access
	// merged into the outstanding MSHR (a miss for hit/miss-prediction
	// purposes, per §6.1's discussion of swim).
	KindDelayedHit
	// KindMiss: the access itself initiated a fetch from below.
	KindMiss
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindHit:
		return "hit"
	case KindDelayedHit:
		return "delayed-hit"
	case KindMiss:
		return "miss"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Supplier is a lower memory level that can deliver and absorb full lines.
type Supplier interface {
	// FetchLine requests the aligned line; done is delivered when the line
	// has arrived at the requester (link bandwidth included).
	FetchLine(now int64, lineAddr uint64, done Ref)
	// WritebackLine absorbs a dirty line evicted by the requester.
	WritebackLine(now int64, lineAddr uint64)
}

// CacheConfig describes one cache level.
type CacheConfig struct {
	Name       string
	Size       int // total bytes
	Ways       int
	LineSize   int // bytes
	HitLatency int // cycles from access to data on a hit
	MSHRs      int // maximum outstanding misses
	// UpLinkBytesPerCycle is the bandwidth of the link that delivers lines
	// from this cache to the level above (e.g. 64 for the L2 per Table 1).
	// Zero means the link is never a bottleneck.
	UpLinkBytesPerCycle int
}

func (c CacheConfig) validate() error {
	if c.Size <= 0 || c.Ways <= 0 || c.LineSize <= 0 {
		return fmt.Errorf("mem: %s: non-positive geometry", c.Name)
	}
	if c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("mem: %s: line size %d not a power of two", c.Name, c.LineSize)
	}
	lines := c.Size / c.LineSize
	if lines%c.Ways != 0 {
		return fmt.Errorf("mem: %s: %d lines not divisible by %d ways", c.Name, lines, c.Ways)
	}
	sets := lines / c.Ways
	if sets&(sets-1) != 0 {
		return fmt.Errorf("mem: %s: set count %d not a power of two", c.Name, sets)
	}
	if c.HitLatency < 1 {
		return fmt.Errorf("mem: %s: hit latency %d < 1", c.Name, c.HitLatency)
	}
	if c.MSHRs < 1 {
		return fmt.Errorf("mem: %s: need at least one MSHR", c.Name)
	}
	return nil
}

// CacheStats aggregates a cache's activity.
type CacheStats struct {
	Accesses    uint64
	Hits        uint64
	DelayedHits uint64
	Misses      uint64 // accesses that allocated an MSHR
	Writebacks  uint64
	MSHRRejects uint64 // accesses rejected because all MSHRs were busy
}

// MissRate returns (delayed hits + misses) / accesses — the paper's notion
// of L1 miss rate, under which a delayed hit is a miss.
func (s CacheStats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.DelayedHits+s.Misses) / float64(s.Accesses)
}

type cacheLine struct {
	valid bool
	dirty bool
	tag   uint64
	lru   uint64
}

type mshrTarget struct {
	write bool
	kind  Kind
	ref   Ref
}

type mshr struct {
	lineAddr uint64
	targets  []mshrTarget
	// upDones marks targets that are line fetches for an upper cache and
	// therefore need up-link bandwidth on delivery.
	upDones []Ref
}

// Cache event ops (HandleEvent dispatch codes).
const (
	// opCacheFetch (arg *mshr): the tag lookup finished; the fetch departs
	// for the lower level.
	opCacheFetch uint8 = iota
	// opCacheDeliver (arg *mshr): the fill is installed; deliver every
	// merged demand target and recycle the mshr.
	opCacheDeliver
	// opCacheHit (arg *mshrTarget, pooled): deliver one hit access.
	opCacheHit
	// opCacheFill (arg *mshr): the fetched line arrived from below.
	opCacheFill
)

// HandleEvent implements Handler: the cache's own deferred work.
func (c *Cache) HandleEvent(op uint8, now int64, _ Kind, arg any) {
	switch op {
	case opCacheFetch:
		m := arg.(*mshr)
		c.lower.FetchLine(now, m.lineAddr, Ref{H: c, Op: opCacheFill, Arg: m})
	case opCacheDeliver:
		c.deliverTargets(now, arg.(*mshr))
	case opCacheHit:
		c.deliverHit(now, arg.(*mshrTarget))
	case opCacheFill:
		c.fill(now, arg.(*mshr).lineAddr)
	}
}

// Cache is one cache level. It is driven entirely through the shared
// EventQueue: all callbacks fire from EventQueue.RunDue.
type Cache struct {
	cfg   CacheConfig
	eq    *EventQueue
	lower Supplier

	sets      int
	lineShift uint
	setShift  uint // log2(sets); setOf derives the tag with a shift, not a divide
	lines     []cacheLine
	stamp     uint64

	// gen counts MSHR allocations and releases — the only events that can
	// change whether the cache would accept a previously rejected access.
	// The LSQ memoises rejections against it (uop.RejGen) so a load stuck
	// behind a full MSHR file repeats its rejection without re-walking the
	// tag array and MSHR file every cycle.
	gen uint64

	// mshrTab is the MSHR file itself: a flat slot array sized to
	// cfg.MSHRs, matching the small fully-associative structure in real
	// hardware. Lookups scan every slot — at the 8–32 MSHRs of Table 1
	// that is a handful of contiguous compares, cheaper than hashing into
	// a Go map — and the simulator's memory-bound profile is dominated by
	// these lookups (see BenchmarkMSHRLookup). mshrLine mirrors the slots'
	// line addresses (noLine when free) so the scan compares against one
	// compact uint64 array instead of dereferencing a pointer per slot.
	mshrTab   []*mshr
	mshrLine  []uint64
	mshrCount int
	// mshrPool recycles mshr structures (and their targets/upDones
	// capacity) so steady-state misses allocate nothing.
	mshrPool []*mshr
	// hitPool recycles the target structures carried by hit-delivery
	// events.
	hitPool []*mshrTarget
	// pendingFetches queues upper-level line fetches that arrived while
	// all MSHRs were busy; they start as MSHRs free. pfHead indexes the
	// queue's front so a pop never re-slices the backing array (which
	// would strand the consumed prefix for the cache's lifetime); the
	// slice is reset whenever the queue drains.
	pendingFetches []pendingFetch
	pfHead         int

	linkFree int64 // next cycle the up-link is available

	stats CacheStats
	// mshrOccupancy integrates MSHR usage for average-occupancy reporting.
	mshrPeak int
}

type pendingFetch struct {
	lineAddr uint64
	done     Ref
}

// NewCache builds a cache on top of lower, sharing the event queue eq.
func NewCache(cfg CacheConfig, eq *EventQueue, lower Supplier) (*Cache, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if eq == nil || lower == nil {
		return nil, fmt.Errorf("mem: %s: nil event queue or lower level", cfg.Name)
	}
	nLines := cfg.Size / cfg.LineSize
	c := &Cache{
		cfg:      cfg,
		eq:       eq,
		lower:    lower,
		sets:     nLines / cfg.Ways,
		lines:    newLines(nLines),
		mshrTab:  make([]*mshr, cfg.MSHRs),
		mshrLine: make([]uint64, cfg.MSHRs),
	}
	for i := range c.mshrLine {
		c.mshrLine[i] = noLine
	}
	for c.lineShift = 0; 1<<c.lineShift != cfg.LineSize; c.lineShift++ {
	}
	for c.setShift = 0; 1<<c.setShift != c.sets; c.setShift++ {
	}
	return c, nil
}

// noLine marks a free MSHR slot in mshrLine. Line addresses are aligned
// to the line size, so the all-ones pattern can never collide.
const noLine = ^uint64(0)

// lookupMSHR returns the busy MSHR registered for lineAddr, or nil. The
// scan covers the whole slot array; entries are sparse and the array is a
// cache line or two.
func (c *Cache) lookupMSHR(lineAddr uint64) *mshr {
	for i, la := range c.mshrLine {
		if la == lineAddr {
			return c.mshrTab[i]
		}
	}
	return nil
}

// allocMSHR takes an mshr from the freelist (or allocates the structure's
// only heap objects, once) and registers it for lineAddr in the first
// free slot. Callers have already checked that a slot is free.
func (c *Cache) allocMSHR(lineAddr uint64) *mshr {
	var m *mshr
	if n := len(c.mshrPool); n > 0 {
		m = c.mshrPool[n-1]
		c.mshrPool[n-1] = nil
		c.mshrPool = c.mshrPool[:n-1]
		m.lineAddr = lineAddr
	} else {
		m = &mshr{lineAddr: lineAddr}
	}
	for i, s := range c.mshrTab {
		if s == nil {
			c.mshrTab[i] = m
			c.mshrLine[i] = lineAddr
			break
		}
	}
	c.mshrCount++
	c.gen++
	if c.mshrCount > c.mshrPeak {
		c.mshrPeak = c.mshrCount
	}
	return m
}

// releaseMSHR unregisters the MSHR for lineAddr and returns it, or nil if
// none is busy for that line.
func (c *Cache) releaseMSHR(lineAddr uint64) *mshr {
	for i, la := range c.mshrLine {
		if la == lineAddr {
			m := c.mshrTab[i]
			c.mshrTab[i] = nil
			c.mshrLine[i] = noLine
			c.mshrCount--
			c.gen++
			return m
		}
	}
	return nil
}

// deliverTargets completes every demand access merged into an mshr, then
// recycles the structure. m has already been removed from the slot table.
func (c *Cache) deliverTargets(now int64, m *mshr) {
	for i := range m.targets {
		t := &m.targets[i]
		t.ref.Deliver(now, t.kind)
		t.ref = Ref{}
	}
	m.targets = m.targets[:0]
	for i := range m.upDones {
		m.upDones[i] = Ref{}
	}
	m.upDones = m.upDones[:0]
	c.mshrPool = append(c.mshrPool, m)
}

// deliverHit completes one hit access after the hit latency. t is a
// pooled *mshrTarget carrying the caller's callback.
func (c *Cache) deliverHit(now int64, t *mshrTarget) {
	done := t.ref
	t.ref = Ref{}
	c.hitPool = append(c.hitPool, t)
	done.Deliver(now, KindHit)
}

// scheduleHit books a hit delivery without allocating: the callback rides
// in a recycled mshrTarget.
func (c *Cache) scheduleHit(when int64, done Ref) {
	var t *mshrTarget
	if n := len(c.hitPool); n > 0 {
		t = c.hitPool[n-1]
		c.hitPool[n-1] = nil
		c.hitPool = c.hitPool[:n-1]
	} else {
		t = &mshrTarget{}
	}
	t.ref = done
	c.eq.ScheduleRef(when, Ref{H: c, Op: opCacheHit, Arg: t})
}

// MustNewCache is NewCache for known-good configurations.
func MustNewCache(cfg CacheConfig, eq *EventQueue, lower Supplier) *Cache {
	c, err := NewCache(cfg, eq, lower)
	if err != nil {
		panic(err)
	}
	return c
}

// Stats returns a copy of the cache's counters.
func (c *Cache) Stats() CacheStats { return c.stats }

// MSHRPeak returns the highest number of simultaneously busy MSHRs.
func (c *Cache) MSHRPeak() int { return c.mshrPeak }

// Config returns the cache's configuration.
func (c *Cache) Config() CacheConfig { return c.cfg }

// LineAddr returns the aligned line address containing addr.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr &^ uint64(c.cfg.LineSize-1) }

func (c *Cache) setOf(lineAddr uint64) ([]cacheLine, uint64) {
	idx := int((lineAddr >> c.lineShift) & uint64(c.sets-1))
	tag := (lineAddr >> c.lineShift) >> c.setShift
	return c.lines[idx*c.cfg.Ways : (idx+1)*c.cfg.Ways], tag
}

func (c *Cache) lookup(lineAddr uint64) *cacheLine {
	set, tag := c.setOf(lineAddr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return &set[i]
		}
	}
	return nil
}

// Probe reports how an access to addr would be serviced right now, with
// no side effects: the tag-array outcome the cache controller knows at
// lookup time. The LSQ uses it to signal chain suspension at
// miss-detection time (§3.4), before the data returns.
func (c *Cache) Probe(addr uint64) Kind {
	lineAddr := c.LineAddr(addr)
	if ln := c.lookup(lineAddr); ln != nil {
		return KindHit
	}
	if c.lookupMSHR(lineAddr) != nil {
		return KindDelayedHit
	}
	return KindMiss
}

// Access performs a demand access (load or store) of the line containing
// addr. done is invoked — from the event queue — when the data is
// available, with the service Kind. Access returns false, without side
// effects, if the access could not be accepted because all MSHRs are busy;
// the caller (the LSQ) retries on a later cycle.
func (c *Cache) Access(now int64, addr uint64, write bool, done func(now int64, k Kind)) bool {
	return c.AccessRef(now, addr, write, KindFunc(done))
}

// AccessRef is Access with the callback as a Ref, so a caller issuing many
// accesses (the LSQ) schedules no closure per access and the pending
// access survives an active clone (the Ref is remappable).
func (c *Cache) AccessRef(now int64, addr uint64, write bool, done Ref) bool {
	_, ok := c.AccessRefKind(now, addr, write, done)
	return ok
}

// AccessRefKind is AccessRef reporting the tag-array outcome of an
// accepted access — what Probe would have returned immediately before it.
// Callers that need both (the LSQ probes for miss-detection signalling,
// then accesses) save a second tag and MSHR scan per access.
func (c *Cache) AccessRefKind(now int64, addr uint64, write bool, done Ref) (Kind, bool) {
	lineAddr := c.LineAddr(addr)
	if ln := c.lookup(lineAddr); ln != nil {
		c.stats.Accesses++
		c.stats.Hits++
		c.stamp++
		ln.lru = c.stamp
		if write {
			ln.dirty = true
		}
		c.scheduleHit(now+int64(c.cfg.HitLatency), done)
		return KindHit, true
	}
	if m := c.lookupMSHR(lineAddr); m != nil {
		c.stats.Accesses++
		c.stats.DelayedHits++
		m.targets = append(m.targets, mshrTarget{write: write, kind: KindDelayedHit, ref: done})
		return KindDelayedHit, true
	}
	if c.mshrCount >= c.cfg.MSHRs {
		c.stats.MSHRRejects++
		return KindMiss, false
	}
	c.stats.Accesses++
	c.stats.Misses++
	m := c.allocMSHR(lineAddr)
	m.targets = append(m.targets, mshrTarget{write: write, kind: KindMiss, ref: done})
	// The fetch leaves after the tag-lookup latency.
	c.eq.ScheduleRef(now+int64(c.cfg.HitLatency), Ref{H: c, Op: opCacheFetch, Arg: m})
	return KindMiss, true
}

// FetchLine implements Supplier for an upper-level cache: a read of the
// full line, delivered over this cache's up-link.
func (c *Cache) FetchLine(now int64, lineAddr uint64, done Ref) {
	lineAddr = c.LineAddr(lineAddr)
	if ln := c.lookup(lineAddr); ln != nil {
		c.stats.Accesses++
		c.stats.Hits++
		c.stamp++
		ln.lru = c.stamp
		deliver := c.reserveLink(now + int64(c.cfg.HitLatency))
		c.eq.ScheduleRef(deliver, done)
		return
	}
	if m := c.lookupMSHR(lineAddr); m != nil {
		c.stats.Accesses++
		c.stats.DelayedHits++
		m.upDones = append(m.upDones, done)
		return
	}
	if c.mshrCount >= c.cfg.MSHRs {
		// Upper levels have no retry path; queue until an MSHR frees.
		c.stats.MSHRRejects++
		c.pendingFetches = append(c.pendingFetches, pendingFetch{lineAddr: lineAddr, done: done})
		return
	}
	c.stats.Accesses++
	c.stats.Misses++
	m := c.allocMSHR(lineAddr)
	m.upDones = append(m.upDones, done)
	c.eq.ScheduleRef(now+int64(c.cfg.HitLatency), Ref{H: c, Op: opCacheFetch, Arg: m})
}

// WritebackLine implements Supplier: absorb a dirty line from above. If
// present the line is marked dirty; otherwise the writeback is forwarded
// down (no write-allocate for evictions).
func (c *Cache) WritebackLine(now int64, lineAddr uint64) {
	lineAddr = c.LineAddr(lineAddr)
	if ln := c.lookup(lineAddr); ln != nil {
		ln.dirty = true
		return
	}
	c.lower.WritebackLine(now, lineAddr)
}

// fill installs a fetched line and completes all merged targets.
func (c *Cache) fill(now int64, lineAddr uint64) {
	m := c.releaseMSHR(lineAddr)
	if m == nil {
		panic(fmt.Sprintf("mem: %s: fill without MSHR for %#x", c.cfg.Name, lineAddr))
	}

	set, tag := c.setOf(lineAddr)
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	if set[victim].valid && set[victim].dirty {
		c.stats.Writebacks++
		victimAddr := (set[victim].tag*uint64(c.sets) + (lineAddr>>c.lineShift)&uint64(c.sets-1)) << c.lineShift
		c.lower.WritebackLine(now, victimAddr)
	}
	dirty := false
	for _, t := range m.targets {
		if t.write {
			dirty = true
		}
	}
	c.stamp++
	set[victim] = cacheLine{valid: true, dirty: dirty, tag: tag, lru: c.stamp}

	// One event delivers every merged demand target (same relative order as
	// one event per target: nothing else is scheduled in between) and then
	// recycles the mshr.
	c.eq.ScheduleRef(now, Ref{H: c, Op: opCacheDeliver, Arg: m})
	for _, done := range m.upDones {
		deliver := c.reserveLink(now)
		c.eq.ScheduleRef(deliver, done)
	}

	// Start one queued upper-level fetch now that an MSHR is free.
	if c.pfHead < len(c.pendingFetches) {
		pf := c.pendingFetches[c.pfHead]
		c.pendingFetches[c.pfHead] = pendingFetch{}
		c.pfHead++
		if c.pfHead == len(c.pendingFetches) {
			c.pendingFetches = c.pendingFetches[:0]
			c.pfHead = 0
		}
		c.FetchLine(now, pf.lineAddr, pf.done)
	}
}

// Warm functionally installs the line containing addr — no latency, no
// events, no demand-access statistics. Used to pre-warm the hierarchy so
// that short simulation samples start from a steady state, standing in
// for the paper's 20-billion-instruction fast-forward.
func (c *Cache) Warm(addr uint64, dirty bool) {
	lineAddr := c.LineAddr(addr)
	if ln := c.lookup(lineAddr); ln != nil {
		c.stamp++
		ln.lru = c.stamp
		if dirty {
			ln.dirty = true
		}
		return
	}
	set, tag := c.setOf(lineAddr)
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	c.stamp++
	set[victim] = cacheLine{valid: true, dirty: dirty, tag: tag, lru: c.stamp}
}

// reserveLink books the up-link for one line transfer beginning no earlier
// than ready and returns the delivery time.
func (c *Cache) reserveLink(ready int64) int64 {
	if c.cfg.UpLinkBytesPerCycle <= 0 {
		return ready
	}
	transfer := int64((c.cfg.LineSize + c.cfg.UpLinkBytesPerCycle - 1) / c.cfg.UpLinkBytesPerCycle)
	start := ready
	if c.linkFree > start {
		start = c.linkFree
	}
	c.linkFree = start + transfer
	return c.linkFree
}

// OutstandingMisses returns the number of busy MSHRs.
func (c *Cache) OutstandingMisses() int { return c.mshrCount }

// SkipMSHRRejects records n MSHR-full rejections without performing the
// accesses. The LSQ uses it to repeat a memoised rejection (AcceptGen
// unchanged) without re-walking the tag array and MSHR file; the real
// reject path (AccessArg finding every MSHR busy) touches only this
// counter, so the shortcut is exact.
func (c *Cache) SkipMSHRRejects(n uint64) { c.stats.MSHRRejects += n }

// AcceptGen identifies the MSHR file's acceptance state: it advances
// exactly when an MSHR is allocated or released (the only transitions —
// fills included, which release — that can change the outcome of an
// access the cache has rejected). While it is unchanged, a rejected
// access would be rejected again.
func (c *Cache) AcceptGen() uint64 { return c.gen }

// pendingFetchLen returns the number of queued upper-level fetches.
func (c *Cache) pendingFetchLen() int { return len(c.pendingFetches) - c.pfHead }
