package sim

// Divergence-aware prefix sharing for sweep families.
//
// A sweep family is a set of configurations identical except for resource
// bounds: the queue design's own sweep dimension (conventional capacity,
// segmented chain wires) and the ROB/LSQ sizes. Running the family's most
// permissive member — the reference — records, through the demand
// watermarks (iq/demand.go), exactly when each tighter bound would first
// have changed the machine's behaviour: its divergence cycle. Up to that
// cycle the tighter sibling's run is cycle-for-cycle identical to the
// reference's, so instead of re-simulating it the sibling forks from an
// in-memory snapshot of the reference (a ladder rung) taken at or before
// the divergence cycle, refitted to the tighter bounds, and simulates only
// the suffix. Results are bit-identical to a cold run by construction;
// whenever a refit cannot be proven safe the sibling silently falls back
// to a cold checkpoint fork.

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/distiq"
	"repro/internal/iq"
	"repro/internal/presched"
)

// queueBound identifies the queue design's sweep dimension: the bound a
// family varies, the demand-curve dim that tracks it, and whether a
// warmer machine can be refitted to a tighter value of it (CloneBounded).
// The FIFO, distance and prescheduling designs bake their bound into the
// placement geometry, so they are never refittable — their families can
// still share prefixes across ROB/LSQ variation.
func queueBound(c Config) (bound int, dim string, refittable bool) {
	switch c.Queue {
	case QueueIdeal:
		return c.QueueSize, "iq", true
	case QueueSegmented:
		return c.Segmented.MaxChains, "chains", true
	}
	return 0, "", false
}

// effBound is the queue sweep bound as an ordering key: segmented
// MaxChains 0 means unlimited and must dominate every finite value.
// Non-refittable designs have no queue sweep dimension and report 0.
func effBound(c Config) int64 {
	b, _, refit := queueBound(c)
	if !refit {
		return 0
	}
	if c.Queue == QueueSegmented && b <= 0 {
		return math.MaxInt64
	}
	return int64(b)
}

// familyKey strips a configuration down to what must match exactly for
// two sweep points to be prefix-sharing siblings: everything except the
// swept bounds. The queue sweep dimension is neutralised (QueueSize for
// the conventional design; MaxChains for the segmented one, where -1 is
// the sentinel because 0 already means unlimited), as are ROBSize and
// LSQSize. Sub-configurations are canonicalised the way forContexts
// would build them and their Threads cleared, so a machine that has been
// through forContexts keys equal to the raw sweep-grid Config it came
// from.
func familyKey(c Config) Config {
	switch c.Queue {
	case QueueIdeal:
		c.QueueSize = 0
	case QueueSegmented:
		if c.Segmented.Segments == 0 {
			c.Segmented = core.DefaultConfig(c.QueueSize, c.Segmented.MaxChains)
		}
		c.Segmented.MaxChains = -1
		c.Segmented.Threads = 0
	case QueuePrescheduled:
		if c.Presched.Lines == 0 {
			c.Presched = presched.DefaultConfig(c.QueueSize)
		}
		c.Presched.Threads = 0
	case QueueDistance:
		if c.Distance.Lines == 0 {
			c.Distance = distiq.DefaultConfig(c.QueueSize)
		}
		c.Distance.Threads = 0
	}
	c.ROBSize = 0
	c.LSQSize = 0
	return c
}

// FamilyKey is the sweep-family grouping key: configurations with equal
// keys are prefix-sharing siblings — identical except for the swept
// resource bounds — and may be batched into one RunFamily call.
func FamilyKey(c Config) Config { return familyKey(c) }

// validateSibling checks that sib is a sweep sibling of ref that ref
// dominates: same family, every swept bound no looser than ref's. Only
// then do ref's demand curves bound sib's behaviour.
func validateSibling(ref, sib Config) error {
	if err := sib.Validate(); err != nil {
		return err
	}
	if familyKey(ref) != familyKey(sib) {
		return fmt.Errorf("sim: configs are not sweep siblings (family keys differ)")
	}
	if sb, rb := effBound(sib), effBound(ref); sb > rb {
		return fmt.Errorf("sim: sibling loosens the queue bound (%d > %d)", sb, rb)
	}
	if sib.ROBSize > ref.ROBSize {
		return fmt.Errorf("sim: sibling loosens the ROB (%d > %d)", sib.ROBSize, ref.ROBSize)
	}
	if sib.LSQSize > ref.LSQSize {
		return fmt.Errorf("sim: sibling loosens the LSQ (%d > %d)", sib.LSQSize, ref.LSQSize)
	}
	return nil
}

// divergenceCycle returns the first cycle at which a cold run of sib
// could have behaved differently from the reference run that produced
// demands, or -1 if the reference's recorded demand never reached sib's
// bounds. Forking sib from any snapshot taken at cycle <= the returned
// value is safe: snapshots record completed cycles only, and the first
// divergent action happens during the returned cycle.
//
// The queue dims ("iq", "chains") diverge strictly above the bound: the
// divergent action — the reference admitting an instruction or chain the
// sibling had no room for — itself pushes the watermark past the bound
// in that same cycle. The engine dims ("rob"/"lsq") must be treated as
// diverging at the bound itself: a sibling whose ROB or LSQ is exactly
// full stalls dispatch (and counts the stall) on an attempt the
// reference carries further, without the reference's watermark ever
// exceeding the sibling's capacity.
func divergenceCycle(demands []iq.DemandCurve, ref, sib Config, nctx int) int64 {
	rc, sc := ref, sib
	refRob, refLsq := rc.forContexts(nctx)
	sibRob, sibLsq := sc.forContexts(nctx)
	refQB, sibQB := effBound(ref), effBound(sib)
	div := int64(-1)
	take := func(first int64) {
		if first >= 0 && (div == -1 || first < div) {
			div = first
		}
	}
	for _, d := range demands {
		switch d.Dim {
		case "iq", "chains":
			// Informational curves (non-refittable designs) don't
			// constrain: their geometry is part of the family key.
			_, dim, refit := queueBound(sib)
			if !refit || dim != d.Dim || sibQB >= refQB {
				continue
			}
			take(d.FirstAbove(sibQB))
		case "rob":
			if sibRob >= refRob {
				continue
			}
			take(d.FirstAbove(int64(sibRob) - 1))
		case "lsq":
			if sibLsq >= refLsq {
				continue
			}
			take(d.FirstAbove(int64(sibLsq) - 1))
		default:
			// A dim this code does not understand: no cycle is provably
			// shared.
			return 0
		}
	}
	return div
}

const (
	// ladderInterval0 is the initial rung spacing in cycles; each time
	// the ladder fills, it thins to every other rung and doubles the
	// spacing, so a run of any length keeps at most ladderMaxRungs
	// snapshots roughly evenly spread over it.
	ladderInterval0 = 2 << 10
	ladderMaxRungs  = 6
	// minShareCycles is the economics floor: below this many shared
	// cycles a cold checkpoint fork is at least as cheap as snapshotting
	// plus refitting, so the sibling falls back.
	minShareCycles = 2 << 10
)

// ladder holds in-memory snapshots (rungs) of a reference machine
// mid-run, taken at in-execution-empty cycle boundaries. Rungs are full
// active clones: forking a sibling from one is CloneBounded, which the
// rung survives unmodified, so one rung serves any number of siblings.
type ladder struct {
	interval int64
	next     int64
	rungs    []*Engine
}

func newLadder() *ladder {
	return &ladder{interval: ladderInterval0, next: ladderInterval0}
}

// maybeTake snapshots e if it has reached the next rung mark and sits at
// a boundary CloneActive accepts. Boundaries with inExec != 0 are simply
// skipped; the next qualifying cycle takes the rung instead.
func (l *ladder) maybeTake(e *Engine) {
	if e.cycle < l.next || e.inExec != 0 {
		return
	}
	l.next = e.cycle + l.interval
	r, err := e.CloneActive()
	if err != nil {
		// A machine CloneActive cannot handle now won't become cloneable
		// later (e.g. closure-wrapped test events); stop trying.
		l.next = math.MaxInt64
		return
	}
	l.rungs = append(l.rungs, r)
	if len(l.rungs) >= ladderMaxRungs {
		l.thin()
	}
}

// thin drops every other rung and doubles the spacing. The first rung
// is always kept: coverage stays anchored near the start of the run,
// which is where tighter siblings diverge — dropping oldest-first would
// leave a long run with rungs only over its final stretch, useless to
// any sibling that diverges before them.
func (l *ladder) thin() {
	kept := l.rungs[:0]
	for i, r := range l.rungs {
		if i%2 == 0 {
			kept = append(kept, r)
		} else {
			r.Recycle()
		}
	}
	for i := len(kept); i < len(l.rungs); i++ {
		l.rungs[i] = nil
	}
	l.rungs = kept
	l.interval *= 2
	if l.next != math.MaxInt64 {
		l.next = l.rungs[len(l.rungs)-1].cycle + l.interval
	}
}

// best returns the latest rung whose cycles are all provably shared with
// a sibling diverging at div (-1: never), or nil if no rung qualifies.
func (l *ladder) best(div int64) *Engine {
	for i := len(l.rungs) - 1; i >= 0; i-- {
		if div == -1 || l.rungs[i].cycle <= div {
			return l.rungs[i]
		}
	}
	return nil
}

// release unpins every rung's stream cursors so live trace trimming can
// advance past them. The rungs must not be forked afterwards.
func (l *ladder) release() {
	for _, r := range l.rungs {
		r.Recycle()
	}
	l.rungs = nil
}

// releaseStreams unregisters a discarded machine's trace cursors from
// their fork sources (see trace.ForkCursor.Release).
func releaseStreams(e *Engine) {
	for _, th := range e.ctxs {
		if r, ok := th.stream.(interface{ Release() }); ok {
			r.Release()
		}
	}
}

// Recycle retires a machine that will never be used again: its trace
// cursors are released and its large clone buffers returned to the pool
// for the next fork. Sweep loops that fork, run and discard machines per
// grid point call this to keep their footprint near one machine's live
// set instead of growing with the grid.
func (e *Engine) Recycle() {
	releaseStreams(e)
	e.hier.Recycle()
}

// PrefixStats counts prefix-sharing outcomes across families; safe for
// concurrent use by parallel sweep workers.
type PrefixStats struct {
	// Families is the number of multi-member families that ran with a
	// ladder-carrying reference.
	Families atomic.Int64
	// Shared counts siblings forked from a ladder rung; Fallbacks counts
	// siblings that took a cold checkpoint fork instead (no safe rung,
	// refit refused, or below the economics floor).
	Shared    atomic.Int64
	Fallbacks atomic.Int64
	// SharedCycles is the total cycles not re-simulated (each forked
	// sibling's rung cycle); TotalCycles is the total cycles the family
	// members report, shared or not.
	SharedCycles atomic.Int64
	TotalCycles  atomic.Int64
}

// Values flattens the counters for reports.
func (ps *PrefixStats) Values() map[string]int64 {
	return map[string]int64{
		"families":      ps.Families.Load(),
		"shared":        ps.Shared.Load(),
		"fallbacks":     ps.Fallbacks.Load(),
		"shared_cycles": ps.SharedCycles.Load(),
		"total_cycles":  ps.TotalCycles.Load(),
	}
}

func (ps *PrefixStats) String() string {
	return fmt.Sprintf("%d/%d cycles shared, %d families, %d forked, %d cold",
		ps.SharedCycles.Load(), ps.TotalCycles.Load(),
		ps.Families.Load(), ps.Shared.Load(), ps.Fallbacks.Load())
}

// pickReference returns the index of the family member that dominates
// every other (the loosest bounds on every swept dimension), or -1 if no
// member does.
func pickReference(cfgs []Config) int {
	for i := range cfgs {
		ok := true
		for j := range cfgs {
			if i != j && validateSibling(cfgs[i], cfgs[j]) != nil {
				ok = false
				break
			}
		}
		if ok {
			return i
		}
	}
	return -1
}

// RunFamily runs every configuration of one sweep family over n
// instructions from ck, sharing the reference member's detailed prefix
// with each sibling up to that sibling's divergence cycle. Results come
// back in cfgs order and are bit-identical to cold ck.Fork runs: a
// sibling whose bounds the reference's demand never reached gets a copy
// of the reference's result outright (its whole run is provably
// identical); one that diverges mid-run is forked from a ladder rung
// only when the demand curves prove the rung's cycles identical under
// the sibling's bounds; and any doubt — no dominating reference, no safe
// rung, a refused refit — falls back to a cold fork. share=false forces
// the cold path for every member. ps, when non-nil, accumulates outcome
// counters.
func RunFamily(ck *Checkpoint, cfgs []Config, n int64, share bool, ps *PrefixStats) ([]*Result, error) {
	results := make([]*Result, len(cfgs))
	addTotal := func(r *Result) {
		if ps != nil {
			ps.TotalCycles.Add(r.Cycles)
		}
	}
	runCold := func(i int) error {
		p, err := ck.Fork(cfgs[i])
		if err != nil {
			return err
		}
		r, err := p.Run(n)
		if err != nil {
			return err
		}
		p.Recycle()
		results[i] = r
		addTotal(r)
		return nil
	}
	ref := -1
	if share && len(cfgs) > 1 {
		ref = pickReference(cfgs)
	}
	if ref < 0 {
		for i := range cfgs {
			if err := runCold(i); err != nil {
				return nil, err
			}
		}
		return results, nil
	}

	if ps != nil {
		ps.Families.Add(1)
	}
	p, err := ck.Fork(cfgs[ref])
	if err != nil {
		return nil, err
	}
	lad := newLadder()
	defer lad.release()
	if err := p.runHooked(n, lad.maybeTake); err != nil {
		return nil, err
	}
	results[ref] = p.result()
	addTotal(results[ref])
	demands := p.Demands()
	nctx := len(p.ctxs)
	refCfg := p.cfg // post-forContexts, as every rung's is

	for i := range cfgs {
		if i == ref {
			continue
		}
		fallback := func() error {
			if ps != nil {
				ps.Fallbacks.Add(1)
			}
			return runCold(i)
		}
		div := divergenceCycle(demands, refCfg, cfgs[i], nctx)
		if div == -1 {
			// The reference's demand never reached this sibling's bounds,
			// so the sibling's entire run is cycle-for-cycle the
			// reference's run and its result is the reference's result.
			// Every reported statistic is behaviour-derived (counters,
			// occupancies, rates) — never a configured bound — so the copy
			// is exact and no simulation at all is needed.
			r := *results[ref]
			r.Stats = results[ref].Stats.Clone()
			results[i] = &r
			addTotal(&r)
			if ps != nil {
				ps.Shared.Add(1)
				ps.SharedCycles.Add(r.Cycles)
			}
			continue
		}
		rung := lad.best(div)
		if rung == nil || rung.cycle < minShareCycles {
			if err := fallback(); err != nil {
				return nil, err
			}
			continue
		}
		sib, err := rung.CloneBounded(cfgs[i])
		if err != nil {
			if err := fallback(); err != nil {
				return nil, err
			}
			continue
		}
		r, err := sib.Run(n)
		if err != nil {
			return nil, err
		}
		sib.Recycle()
		results[i] = r
		addTotal(r)
		if ps != nil {
			ps.Shared.Add(1)
			ps.SharedCycles.Add(rung.cycle)
		}
	}
	p.Recycle()
	return results, nil
}
