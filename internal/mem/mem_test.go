package mem

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestEventQueueOrdering(t *testing.T) {
	var q EventQueue
	var got []int
	q.Schedule(5, func(int64) { got = append(got, 5) })
	q.Schedule(1, func(int64) { got = append(got, 1) })
	q.Schedule(3, func(int64) { got = append(got, 3) })
	if n := q.RunDue(0); n != 0 {
		t.Fatalf("ran %d events before any were due", n)
	}
	if n := q.RunDue(3); n != 2 {
		t.Fatalf("ran %d events at cycle 3, want 2", n)
	}
	if got[0] != 1 || got[1] != 3 {
		t.Fatalf("order = %v", got)
	}
	q.RunDue(10)
	if len(got) != 3 || got[2] != 5 {
		t.Fatalf("final order = %v", got)
	}
	if q.Len() != 0 {
		t.Error("queue should be empty")
	}
}

func TestEventQueueSameCycleFIFO(t *testing.T) {
	var q EventQueue
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		q.Schedule(7, func(int64) { got = append(got, i) })
	}
	q.RunDue(7)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-cycle events out of order: %v", got)
		}
	}
}

func TestEventQueueCascading(t *testing.T) {
	// An event scheduling another event at the same cycle: both run in one
	// RunDue call.
	var q EventQueue
	ran := 0
	q.Schedule(2, func(now int64) {
		ran++
		q.Schedule(now, func(int64) { ran++ })
	})
	q.RunDue(2)
	if ran != 2 {
		t.Fatalf("ran = %d, want 2", ran)
	}
	if n := q.Len(); n != 0 {
		t.Fatalf("%d leftover events", n)
	}
}

// addArgHandler exercises the arg-carrying Ref path: delivery appends
// now plus the payload's value.
type addArgHandler struct{ got *[]int64 }

func (h addArgHandler) HandleEvent(_ uint8, now int64, _ Kind, arg any) {
	*h.got = append(*h.got, now+*arg.(*int64))
}

// Regression: callbacks observe the event's own scheduled time, not the
// clock RunDue was called with. A caller's clock can be far past an
// event's due time on the RunDue that drains it; completion stamps taken
// from the callback argument must not drift.
func TestEventQueuePastDueObservesScheduledTime(t *testing.T) {
	var q EventQueue
	var got []int64
	q.Schedule(90, func(now int64) { got = append(got, now) })
	q.ScheduleRef(95, Ref{H: addArgHandler{&got}, Arg: new(int64)})
	q.Schedule(120, func(now int64) { got = append(got, now) })
	// The caller jumps straight to cycle 120: all three events drain in
	// one call, each seeing its own time.
	if n := q.RunDue(120); n != 3 {
		t.Fatalf("ran %d events, want 3", n)
	}
	want := []int64{90, 95, 120}
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("observed times = %v, want %v", got, want)
		}
	}
	// Cascading past-due events keep the contract too.
	q.Schedule(10, func(now int64) {
		got = append(got, now)
		q.Schedule(now+5, func(now int64) { got = append(got, now) })
	})
	got = got[:0]
	q.RunDue(200)
	if len(got) != 2 || got[0] != 10 || got[1] != 15 {
		t.Fatalf("cascaded observed times = %v, want [10 15]", got)
	}
}

// Property: events always run in non-decreasing time order.
func TestEventQueueOrderProperty(t *testing.T) {
	f := func(times []uint16) bool {
		var q EventQueue
		var got []int64
		for _, tm := range times {
			when := int64(tm % 500)
			q.Schedule(when, func(int64) { got = append(got, when) })
		}
		q.RunDue(1000)
		return sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) &&
			len(got) == len(times)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// fakeLower is a scriptable Supplier for isolating a single cache level.
type fakeLower struct {
	eq      *EventQueue
	latency int64
	fetches int
	wbs     int
}

func (f *fakeLower) FetchLine(now int64, lineAddr uint64, done Ref) {
	f.fetches++
	f.eq.ScheduleRef(now+f.latency, done)
}

func (f *fakeLower) WritebackLine(now int64, lineAddr uint64) { f.wbs++ }

func testCache(t *testing.T, cfg CacheConfig, lowerLat int64) (*Cache, *fakeLower, *EventQueue) {
	t.Helper()
	eq := &EventQueue{}
	low := &fakeLower{eq: eq, latency: lowerLat}
	c, err := NewCache(cfg, eq, low)
	if err != nil {
		t.Fatal(err)
	}
	return c, low, eq
}

var smallCfg = CacheConfig{Name: "T", Size: 1024, Ways: 2, LineSize: 64,
	HitLatency: 3, MSHRs: 4}

func TestCacheConfigValidation(t *testing.T) {
	eq := &EventQueue{}
	low := &fakeLower{eq: eq}
	bad := []CacheConfig{
		{Name: "a", Size: 0, Ways: 1, LineSize: 64, HitLatency: 1, MSHRs: 1},
		{Name: "b", Size: 1024, Ways: 1, LineSize: 48, HitLatency: 1, MSHRs: 1},
		{Name: "c", Size: 1024, Ways: 3, LineSize: 64, HitLatency: 1, MSHRs: 1},
		{Name: "d", Size: 3 * 64, Ways: 1, LineSize: 64, HitLatency: 1, MSHRs: 1},
		{Name: "e", Size: 1024, Ways: 2, LineSize: 64, HitLatency: 0, MSHRs: 1},
		{Name: "f", Size: 1024, Ways: 2, LineSize: 64, HitLatency: 1, MSHRs: 0},
	}
	for _, cfg := range bad {
		if _, err := NewCache(cfg, eq, low); err == nil {
			t.Errorf("config %s should be rejected", cfg.Name)
		}
	}
	if _, err := NewCache(smallCfg, nil, low); err == nil {
		t.Error("nil event queue should be rejected")
	}
	if _, err := NewCache(smallCfg, eq, nil); err == nil {
		t.Error("nil lower level should be rejected")
	}
}

func TestCacheMissThenHit(t *testing.T) {
	c, low, eq := testCache(t, smallCfg, 20)
	var doneAt int64 = -1
	var kind Kind
	ok := c.Access(0, 0x1008, false, func(now int64, k Kind) { doneAt, kind = now, k })
	if !ok {
		t.Fatal("access rejected")
	}
	for cyc := int64(0); cyc <= 30 && doneAt < 0; cyc++ {
		eq.RunDue(cyc)
	}
	// Miss: lookup 3 + lower 20 = 23.
	if doneAt != 23 || kind != KindMiss {
		t.Fatalf("miss completed at %d kind %v, want 23 miss", doneAt, kind)
	}
	if low.fetches != 1 {
		t.Fatalf("fetches = %d", low.fetches)
	}

	// Same line again: hit with 3-cycle latency.
	doneAt = -1
	c.Access(30, 0x1010, false, func(now int64, k Kind) { doneAt, kind = now, k })
	eq.RunDue(33)
	if doneAt != 33 || kind != KindHit {
		t.Fatalf("hit completed at %d kind %v, want 33 hit", doneAt, kind)
	}
	st := c.Stats()
	if st.Accesses != 2 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheDelayedHitMerging(t *testing.T) {
	c, low, eq := testCache(t, smallCfg, 20)
	var times []int64
	var kinds []Kind
	record := func(now int64, k Kind) { times = append(times, now); kinds = append(kinds, k) }
	c.Access(0, 0x2000, false, record)
	c.Access(1, 0x2008, false, record) // same line, in flight -> delayed hit
	c.Access(2, 0x2030, true, record)  // same line again
	for cyc := int64(0); cyc <= 30; cyc++ {
		eq.RunDue(cyc)
	}
	if low.fetches != 1 {
		t.Fatalf("merged accesses caused %d fetches", low.fetches)
	}
	if len(times) != 3 {
		t.Fatalf("completions = %d", len(times))
	}
	// All complete at fill time 23.
	for i, tm := range times {
		if tm != 23 {
			t.Errorf("completion %d at %d, want 23", i, tm)
		}
	}
	if kinds[0] != KindMiss || kinds[1] != KindDelayedHit || kinds[2] != KindDelayedHit {
		t.Fatalf("kinds = %v", kinds)
	}
	st := c.Stats()
	if st.DelayedHits != 2 {
		t.Fatalf("delayed hits = %d", st.DelayedHits)
	}
	if st.MissRate() != 1.0 {
		t.Fatalf("miss rate = %v (delayed hits are misses)", st.MissRate())
	}
}

func TestCacheMSHRLimit(t *testing.T) {
	c, _, eq := testCache(t, smallCfg, 50)
	nop := func(int64, Kind) {}
	for i := 0; i < 4; i++ {
		if !c.Access(0, uint64(0x4000+i*64), false, nop) {
			t.Fatalf("access %d rejected below MSHR limit", i)
		}
	}
	if c.OutstandingMisses() != 4 {
		t.Fatalf("outstanding = %d", c.OutstandingMisses())
	}
	if c.Access(0, 0x9000, false, nop) {
		t.Fatal("access beyond MSHR limit accepted")
	}
	if c.Stats().MSHRRejects != 1 {
		t.Fatalf("rejects = %d", c.Stats().MSHRRejects)
	}
	if c.MSHRPeak() != 4 {
		t.Fatalf("peak = %d", c.MSHRPeak())
	}
	// Merging into an existing MSHR is still allowed when full.
	if !c.Access(0, 0x4008, false, nop) {
		t.Fatal("merge rejected while MSHRs full")
	}
	for cyc := int64(0); cyc <= 60; cyc++ {
		eq.RunDue(cyc)
	}
	if c.OutstandingMisses() != 0 {
		t.Fatal("MSHRs not freed after fills")
	}
	// After fills, new misses are accepted again.
	if !c.Access(61, 0x9000, false, nop) {
		t.Fatal("access rejected after MSHRs freed")
	}
}

func TestCacheWritebackOnDirtyEviction(t *testing.T) {
	// 2-way, 8 sets: three lines mapping to the same set force an
	// eviction; a dirty victim must be written back.
	c, low, eq := testCache(t, smallCfg, 10)
	setStride := uint64(smallCfg.Size / smallCfg.Ways) // 512: same set, different tag
	nop := func(int64, Kind) {}
	run := func(to int64) {
		for cyc := int64(0); cyc <= to; cyc++ {
			eq.RunDue(cyc)
		}
	}
	c.Access(0, 0x0, true, nop) // write -> line dirty on fill
	run(20)
	c.Access(21, setStride, false, nop)
	run(40)
	c.Access(41, 2*setStride, false, nop) // evicts dirty line 0x0 (LRU)
	run(60)
	if low.wbs != 1 {
		t.Fatalf("writebacks = %d, want 1", low.wbs)
	}
	if c.Stats().Writebacks != 1 {
		t.Fatalf("stat writebacks = %d", c.Stats().Writebacks)
	}
	// Line 0x0 must now miss (was evicted).
	before := c.Stats().Misses
	c.Access(61, 0x0, false, nop)
	if c.Stats().Misses != before+1 {
		t.Error("evicted line should miss")
	}
}

func TestCacheLRUWithinSet(t *testing.T) {
	c, _, eq := testCache(t, smallCfg, 10)
	setStride := uint64(smallCfg.Size / smallCfg.Ways)
	nop := func(int64, Kind) {}
	run := func(from, to int64) {
		for cyc := from; cyc <= to; cyc++ {
			eq.RunDue(cyc)
		}
	}
	c.Access(0, 0x0, false, nop)
	run(0, 20)
	c.Access(21, setStride, false, nop)
	run(21, 40)
	// Touch line 0x0 to make setStride the LRU.
	c.Access(41, 0x0, false, nop)
	run(41, 45)
	c.Access(46, 2*setStride, false, nop) // evicts setStride
	run(46, 70)
	hitsBefore := c.Stats().Hits
	c.Access(71, 0x0, false, nop)
	if c.Stats().Hits != hitsBefore+1 {
		t.Error("recently used line was evicted")
	}
	missBefore := c.Stats().Misses
	c.Access(72, setStride, false, nop)
	if c.Stats().Misses != missBefore+1 {
		t.Error("LRU line should have been evicted")
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := MustNewHierarchy(DefaultHierarchyConfig())
	var doneAt int64 = -1
	h.L1D.Access(0, 0x100000, false, func(now int64, k Kind) { doneAt = now })
	for cyc := int64(0); cyc <= 200 && doneAt < 0; cyc++ {
		h.Tick(cyc)
	}
	// L1 lookup 3 + L2 lookup 10 + memory 100 + memory transfer 8 +
	// L2->L1 transfer 1 = 122.
	if doneAt != 122 {
		t.Fatalf("cold miss completed at %d, want 122", doneAt)
	}

	// L2 hit path: evict nothing, access a different line that is in L2
	// after... instead re-access the same line after flushing L1 is hard;
	// access a neighbouring line in the same L2 line? Line sizes are
	// equal, so instead verify a warm L1 hit takes exactly 3 cycles.
	doneAt = -1
	h.L1D.Access(300, 0x100008, false, func(now int64, k Kind) { doneAt = now })
	for cyc := int64(300); cyc <= 310 && doneAt < 0; cyc++ {
		h.Tick(cyc)
	}
	if doneAt != 303 {
		t.Fatalf("warm hit at %d, want 303", doneAt)
	}
	if h.Mem.Fetches() != 1 {
		t.Fatalf("memory fetches = %d", h.Mem.Fetches())
	}
}

func TestHierarchyL2HitLatency(t *testing.T) {
	// Warm the L2 but evict from L1 by streaming past L1 capacity within
	// one L1 set.
	h := MustNewHierarchy(DefaultHierarchyConfig())
	nop := func(int64, Kind) {}
	l1SetStride := uint64(64 << 10 / 2) // 32 KB
	cyc := int64(0)
	run := func(until int64) {
		for ; cyc <= until; cyc++ {
			h.Tick(cyc)
		}
	}
	h.L1D.Access(0, 0x0, false, nop)
	run(200)
	h.L1D.Access(cyc, l1SetStride, false, nop)
	run(cyc + 200)
	h.L1D.Access(cyc, 2*l1SetStride, false, nop) // evicts 0x0 from L1; L2 keeps it
	run(cyc + 200)

	var doneAt int64 = -1
	start := cyc
	h.L1D.Access(start, 0x0, false, func(now int64, k Kind) { doneAt = now })
	run(cyc + 50)
	// L1 lookup 3 + L2 hit 10 + transfer 1 = 14.
	if got := doneAt - start; got != 14 {
		t.Fatalf("L2 hit latency = %d, want 14", got)
	}
}

func TestMemoryBandwidthSerialization(t *testing.T) {
	eq := &EventQueue{}
	mm := MustNewMainMemory(eq, 100, 64, 8)
	var times []int64
	mm.FetchLine(0, 0x0, PlainFunc(func(now int64) { times = append(times, now) }))
	mm.FetchLine(0, 0x40, PlainFunc(func(now int64) { times = append(times, now) }))
	mm.FetchLine(0, 0x80, PlainFunc(func(now int64) { times = append(times, now) }))
	for cyc := int64(0); cyc <= 200; cyc++ {
		eq.RunDue(cyc)
	}
	// 64B at 8B/cyc = 8 cycles per transfer: 108, 116, 124.
	want := []int64{108, 116, 124}
	for i, w := range want {
		if times[i] != w {
			t.Fatalf("transfer %d at %d, want %d (all %v)", i, times[i], w, times)
		}
	}
	mm.WritebackLine(200, 0x0)
	if mm.Writebacks() != 1 {
		t.Error("writeback not counted")
	}
}

func TestMainMemoryValidation(t *testing.T) {
	eq := &EventQueue{}
	if _, err := NewMainMemory(nil, 100, 64, 8); err == nil {
		t.Error("nil queue should be rejected")
	}
	if _, err := NewMainMemory(eq, 0, 64, 8); err == nil {
		t.Error("zero latency should be rejected")
	}
	if _, err := NewMainMemory(eq, 100, 0, 8); err == nil {
		t.Error("zero line should be rejected")
	}
	// Unlimited bandwidth is allowed.
	mm := MustNewMainMemory(eq, 50, 64, 0)
	var doneAt int64
	mm.FetchLine(0, 0, PlainFunc(func(now int64) { doneAt = now }))
	eq.RunDue(50)
	if doneAt != 50 {
		t.Errorf("unlimited-bw fetch at %d, want 50", doneAt)
	}
}

func TestL2PendingFetchQueue(t *testing.T) {
	// An L2 with one MSHR receiving two upper-level fetches must queue the
	// second and still complete it.
	eq := &EventQueue{}
	low := &fakeLower{eq: eq, latency: 10}
	cfg := smallCfg
	cfg.MSHRs = 1
	c := MustNewCache(cfg, eq, low)
	var done1, done2 int64 = -1, -1
	c.FetchLine(0, 0x1000, PlainFunc(func(now int64) { done1 = now }))
	c.FetchLine(0, 0x2000, PlainFunc(func(now int64) { done2 = now }))
	for cyc := int64(0); cyc <= 100; cyc++ {
		eq.RunDue(cyc)
	}
	if done1 < 0 || done2 < 0 {
		t.Fatalf("queued fetch lost: %d %d", done1, done2)
	}
	if done2 <= done1 {
		t.Fatalf("queued fetch finished first: %d vs %d", done2, done1)
	}
}

func TestFetchLineMergesWithInflight(t *testing.T) {
	eq := &EventQueue{}
	low := &fakeLower{eq: eq, latency: 10}
	c := MustNewCache(smallCfg, eq, low)
	var times []int64
	c.FetchLine(0, 0x3000, PlainFunc(func(now int64) { times = append(times, now) }))
	c.FetchLine(1, 0x3000, PlainFunc(func(now int64) { times = append(times, now) }))
	for cyc := int64(0); cyc <= 50; cyc++ {
		eq.RunDue(cyc)
	}
	if low.fetches != 1 {
		t.Fatalf("duplicate fetch issued: %d", low.fetches)
	}
	if len(times) != 2 {
		t.Fatalf("completions = %v", times)
	}
}

func TestWritebackLinePropagation(t *testing.T) {
	eq := &EventQueue{}
	low := &fakeLower{eq: eq, latency: 10}
	c := MustNewCache(smallCfg, eq, low)
	// Line not present: forwarded down.
	c.WritebackLine(0, 0x5000)
	if low.wbs != 1 {
		t.Fatalf("writeback not forwarded: %d", low.wbs)
	}
	// Fetch a line, then write it back from above: absorbed, marked dirty.
	nop := func(int64, Kind) {}
	c.Access(0, 0x6000, false, nop)
	for cyc := int64(0); cyc <= 20; cyc++ {
		eq.RunDue(cyc)
	}
	c.WritebackLine(21, 0x6000)
	if low.wbs != 1 {
		t.Fatal("present line should be absorbed, not forwarded")
	}
	// Evicting it later must write it back (it is dirty now).
	setStride := uint64(smallCfg.Size / smallCfg.Ways)
	c.Access(22, 0x6000+setStride, false, nop)
	c.Access(23, 0x6000+2*setStride, false, nop)
	for cyc := int64(22); cyc <= 60; cyc++ {
		eq.RunDue(cyc)
	}
	if low.wbs != 2 {
		t.Fatalf("dirty absorbed line not written back on eviction: %d", low.wbs)
	}
}

func TestKindString(t *testing.T) {
	if KindHit.String() != "hit" || KindDelayedHit.String() != "delayed-hit" ||
		KindMiss.String() != "miss" {
		t.Error("kind names wrong")
	}
	if Kind(9).String() == "" {
		t.Error("unknown kind should render")
	}
}

// Property: under random access streams the cache conserves accounting:
// accesses = hits + delayed hits + misses, and all accepted accesses
// eventually complete.
func TestCacheAccountingProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		eq := &EventQueue{}
		low := &fakeLower{eq: eq, latency: 15}
		c := MustNewCache(smallCfg, eq, low)
		completions := 0
		accepted := 0
		cyc := int64(0)
		for _, a := range addrs {
			if c.Access(cyc, uint64(a)*8, a%3 == 0, func(int64, Kind) { completions++ }) {
				accepted++
			}
			eq.RunDue(cyc)
			cyc++
		}
		for ; cyc < int64(len(addrs))+100; cyc++ {
			eq.RunDue(cyc)
		}
		st := c.Stats()
		return completions == accepted &&
			st.Accesses == st.Hits+st.DelayedHits+st.Misses &&
			st.Accesses == uint64(accepted)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestProbe(t *testing.T) {
	c, _, eq := testCache(t, smallCfg, 20)
	if c.Probe(0x7000) != KindMiss {
		t.Fatal("cold line should probe as miss")
	}
	nop := func(int64, Kind) {}
	c.Access(0, 0x7000, false, nop)
	if c.Probe(0x7008) != KindDelayedHit {
		t.Fatal("in-flight line should probe as delayed hit")
	}
	for cyc := int64(0); cyc <= 30; cyc++ {
		eq.RunDue(cyc)
	}
	if c.Probe(0x7000) != KindHit {
		t.Fatal("filled line should probe as hit")
	}
	// Probe has no side effects on stats.
	st := c.Stats()
	if st.Accesses != 1 {
		t.Fatalf("probe changed accounting: %+v", st)
	}
}
