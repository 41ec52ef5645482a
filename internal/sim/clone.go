package sim

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/uop"
)

// CloneActive returns an independent deep copy of the machine: the
// queue, every context's front end, renamer, ROB and LSQ, the memory
// hierarchy, branch structures and statistics. In-flight instructions
// are remapped through one shared uop.CloneMap, and pending memory
// events, busy MSHRs and queued fetches are carried across and
// re-pointed at the clone through a mem.Remap: every event is a Ref
// naming its handler (cache, LSQ, front end, engine) and payload (mshr,
// uop, nil), so the clone registers the handler identities it creates
// and resolves every Ref afterwards. An unresolvable Ref — a test-only
// closure wrapper, or a payload kind the resolver does not know —
// returns an error. Stepping either machine leaves the other untouched.
//
// Two gates apply. No instruction may be in execution (inExec == 0);
// such boundaries are dense — measured ~1 per 5 cycles on the Table 1
// machine. And every context's stream must be forkable (trace.Forkable)
// so the clone can replay the same instruction suffix.
func (e *Engine) CloneActive() (*Engine, error) {
	return e.cloneActive(nil)
}

// CloneBounded is CloneActive refitted to a sibling sweep configuration:
// the clone is exactly the machine a cold run under cfg would have built
// at this cycle, provided the demand watermarks never crossed cfg's
// tighter bounds — which the caller establishes from Demands() and the
// refits re-verify. cfg may tighten the queue design's sweep bound
// (capacity for the conventional design, chain wires for the segmented
// one) and the ROB/LSQ sizes; everything else must match. An error means
// the refit could not be proven safe and the caller must fork cold.
func (e *Engine) CloneBounded(cfg Config) (*Engine, error) {
	return e.cloneActive(&cfg)
}

func (e *Engine) cloneActive(cfg2 *Config) (*Engine, error) {
	if e.inExec != 0 {
		return nil, fmt.Errorf("sim: active clone at a non-boundary (%d instructions in execution)", e.inExec)
	}
	for _, th := range e.ctxs {
		if _, ok := th.stream.(trace.Forkable); !ok {
			return nil, fmt.Errorf("sim: clone requires forkable streams (context %d reads a %T)", th.id, th.stream)
		}
	}
	robEach, lsqEach := 0, 0
	if cfg2 != nil {
		if err := validateSibling(e.cfg, *cfg2); err != nil {
			return nil, err
		}
		robEach, lsqEach = cfg2.forContexts(len(e.ctxs))
	}
	rm := mem.NewRemap()
	hier, err := e.hier.CloneActive(rm)
	if err != nil {
		return nil, err
	}
	m := uop.NewCloneMap()
	rm.Arg = func(a any) (any, error) {
		u, ok := a.(*uop.UOp)
		if !ok {
			return nil, fmt.Errorf("sim: active clone: unmapped event payload %T", a)
		}
		return m.Get(u), nil
	}
	n := new(Engine)
	*n = *e
	n.hier = hier
	n.fus = e.fus.Clone()
	n.demROB.Steps = e.demROB.CloneSteps()
	n.demLSQ.Steps = e.demLSQ.CloneSteps()
	if cfg2 == nil {
		n.q = e.q.Clone(m)
	} else {
		n.cfg = *cfg2
		b1, _, refit1 := queueBound(e.cfg)
		b2, _, _ := queueBound(*cfg2)
		if refit1 && b1 != b2 {
			q2, ok := e.q.CloneBounded(m, b2)
			if !ok {
				return nil, fmt.Errorf("sim: queue refit to bound %d unsafe (watermark crossed or unsupported)", b2)
			}
			n.q = q2
		} else {
			n.q = e.q.Clone(m)
		}
	}
	n.ctxs = nil
	rm.RegisterHandler(e, n)
	for _, th := range e.ctxs {
		s := th.stream.(trace.Forkable).Fork()
		bp := th.bp.Clone()
		btb := th.btb.Clone()
		nth := &context{
			id:        th.id,
			stream:    s,
			bp:        bp,
			btb:       btb,
			fe:        th.fe.Clone(s, bp, btb, hier.L1I, m),
			ren:       th.ren.Clone(m),
			workload:  th.workload,
			committed: th.committed,
		}
		if cfg2 == nil {
			nth.rob = th.rob.Clone(m)
			nth.lsq = th.lsq.Clone(hier.L1D, hier.EQ, n.q, m)
		} else {
			rob, ok := th.rob.CloneCap(m, robEach)
			if !ok {
				return nil, fmt.Errorf("sim: ROB refit to %d unsafe (%d resident)", robEach, th.rob.Len())
			}
			nth.rob = rob
			lsq, ok := th.lsq.CloneCap(hier.L1D, hier.EQ, n.q, m, lsqEach)
			if !ok {
				return nil, fmt.Errorf("sim: LSQ refit to %d unsafe (%d resident)", lsqEach, th.lsq.Len())
			}
			nth.lsq = lsq
		}
		rm.RegisterHandler(th.fe, nth.fe)
		rm.RegisterHandler(th.lsq, nth.lsq)
		n.bindCommit(nth)
		n.ctxs = append(n.ctxs, nth)
	}
	n.bindCallbacks()
	if err := hier.ResolveRemap(rm); err != nil {
		return nil, err
	}
	return n, nil
}
