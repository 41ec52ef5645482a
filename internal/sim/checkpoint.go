package sim

import (
	"fmt"

	"repro/internal/pipeline"
	"repro/internal/trace"
)

// ContextSpec names one hardware context of a checkpointed machine: a
// workload, the seed its trace generator runs with, and the number of
// instructions to fast-forward that context before measurement. A
// single-threaded checkpoint is simply a one-element context set.
type ContextSpec struct {
	// Workload is the workload name (trace.New).
	Workload string
	// Seed seeds the workload's trace generator.
	Seed uint64
	// Warm is this context's fast-forward budget in instructions.
	Warm int64
}

// Checkpoint captures a machine warmed over an ordered context set's
// prefixes: caches installed, branch structures trained, and every
// context's instruction stream advanced to the measurement point. Fork
// then stamps out fresh machines that resume from that state — under the
// checkpoint's own configuration or any other that keeps the same memory
// and branch-structure geometry — so a sweep pays for the warmup once
// per context set instead of once per grid point.
//
// The forked machines share per-context memoised views of the
// post-warmup streams (trace.ForkSource); Fork is safe to call from
// concurrent goroutines, and the forked machines may themselves run
// concurrently.
type Checkpoint struct {
	template *Engine

	// specs records how the template was produced, in context order; Save
	// writes them so LoadCheckpoint can rebuild the generators and report
	// provenance.
	specs []ContextSpec

	// frontiers are the per-context warm frontiers as absolute positions in
	// each workload's original stream. The template's own cursors cannot
	// supply these: a freshly warmed cursor sits at the absolute frontier,
	// but a loaded one sits at zero (its rebuilt source's origin is the
	// frontier itself), so Save records the absolute value here to stay
	// construction-path independent.
	frontiers []int64
}

// NewCheckpoint builds one hardware context per spec, fast-forwards the
// set round-robin over the per-context warm budgets (Engine.warmContexts:
// cache lines installed, branch structures trained, no simulated time),
// and captures the result. The round-robin interleaving matches a live
// SMT run's fetch rotation, so forking the checkpoint is equivalent to
// warming a cold machine over the same specs.
func NewCheckpoint(cfg Config, specs ...ContextSpec) (*Checkpoint, error) {
	return newCheckpoint(cfg, specs, nil)
}

// newCheckpoint is NewCheckpoint; view, if non-nil, wraps each cursor for
// the warm-up's reads only (tests hide the cursors' windows with it).
func newCheckpoint(cfg Config, specs []ContextSpec, view func(trace.Stream) trace.Stream) (*Checkpoint, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("sim: checkpoint needs at least one context")
	}
	curs := make([]trace.Stream, len(specs))
	srcs := make([]*trace.ForkSource, len(specs))
	budgets := make([]int64, len(specs))
	for i, sp := range specs {
		base, err := trace.New(sp.Workload, sp.Seed)
		if err != nil {
			return nil, err
		}
		src := trace.NewForkSource(base)
		cur := src.Fork()
		// No cursor ever starts below the warm frontier, so live trimming
		// can run from the first instruction: the warmup prefix is freed as
		// it is consumed instead of accumulating until the explicit trim
		// below.
		src.TrimBefore(0)
		srcs[i], curs[i] = src, cur
		budgets[i] = sp.Warm
	}
	e, err := NewEngine(cfg, curs)
	if err != nil {
		return nil, err
	}
	warm := curs
	if view != nil {
		warm = make([]trace.Stream, len(curs))
		for i, c := range curs {
			warm[i] = view(c)
		}
	}
	e.warmContexts(warm, budgets)
	frontiers := make([]int64, len(specs))
	for i, src := range srcs {
		frontiers[i] = curs[i].(*trace.ForkCursor).Pos()
		// The warmup prefix will never be replayed: every fork starts at
		// the frontier.
		src.TrimBefore(frontiers[i])
	}
	return &Checkpoint{template: e, specs: append([]ContextSpec(nil), specs...), frontiers: frontiers}, nil
}

// Specs returns the ordered context set the checkpoint was built over.
func (ck *Checkpoint) Specs() []ContextSpec {
	return append([]ContextSpec(nil), ck.specs...)
}

// Contexts returns the number of hardware contexts.
func (ck *Checkpoint) Contexts() int { return len(ck.specs) }

// Release declares the checkpoint done forking: its template cursors —
// pinned at the warm frontier, which forces each fork source to keep the
// whole measured suffix memoised for potential future forks — are
// unregistered, so the sources' live trimming can follow the machines
// already forked instead. Fork must not be called after Release.
func (ck *Checkpoint) Release() {
	for _, th := range ck.template.ctxs {
		if c, ok := th.stream.(*trace.ForkCursor); ok {
			c.Release()
		}
	}
}

// Fork returns a fresh machine resuming from the checkpoint under cfg,
// which may vary the queue design, queue size, widths, and ROB/LSQ sizes
// freely. The memory hierarchy and branch-structure geometry must match
// the checkpoint's — the warmed state would be meaningless otherwise —
// and a mismatch is an error. Every context of the template is forked;
// the n-context resource partitioning is re-derived from cfg exactly as
// NewEngine would. Concurrent forks are safe: the checkpoint is only
// ever read.
func (ck *Checkpoint) Fork(cfg Config) (*Engine, error) {
	t := ck.template
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Memory != t.cfg.Memory {
		return nil, fmt.Errorf("sim: fork changes memory geometry; re-checkpoint instead")
	}
	if cfg.BranchPredictor != t.cfg.BranchPredictor ||
		cfg.BTBEntries != t.cfg.BTBEntries || cfg.BTBWays != t.cfg.BTBWays {
		return nil, fmt.Errorf("sim: fork changes branch-structure geometry; re-checkpoint instead")
	}
	robEach, lsqEach := cfg.forContexts(len(t.ctxs))
	q, err := cfg.buildQueue()
	if err != nil {
		return nil, err
	}
	hier, err := t.hier.Clone()
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:  cfg,
		q:    q,
		hier: hier,
		fus:  pipeline.NewFUPool(cfg.FUPerClass),
	}
	for _, tth := range t.ctxs {
		th, err := e.newContext(tth.id, tth.stream.(trace.Forkable).Fork(),
			robEach, lsqEach, tth.bp.Clone(), tth.btb.Clone())
		if err != nil {
			return nil, err
		}
		e.ctxs = append(e.ctxs, th)
	}
	e.bindCallbacks()
	return e, nil
}
