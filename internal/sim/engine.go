package sim

import (
	"fmt"

	"repro/internal/bpred"
	"repro/internal/iq"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/pipeline"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/uop"
)

// Engine is the simulated machine: a Table 1 pipeline whose shared
// resources (instruction queue, function units, memory hierarchy) are
// driven by one or more hardware contexts. A single-threaded run is
// simply an Engine with one context; the §7 SMT machine is the same
// Engine with several. Fetch and dispatch bandwidth rotate round-robin
// among contexts, commit bandwidth is shared with rotating priority, and
// chains from independent threads interleave freely in the segmented
// queue.
type Engine struct {
	cfg Config
	q   iq.Queue

	hier *mem.Hierarchy
	fus  *pipeline.FUPool

	ctxs []*context

	cycle  int64
	inExec int // issued instructions whose results are outstanding
	seq    int64

	// tryIssueFn is bound once at construction so the issue loop passes no
	// fresh closure per call. It reads e.cycle, which equals the cycle
	// being stepped throughout Step.
	tryIssueFn func(*uop.UOp) bool

	// Per-run statistics (aggregated across contexts).
	stIssued       stats.Counter
	stCommitted    stats.Counter
	stDispStallROB stats.Counter
	stDispStallLSQ stats.Counter
	stDispStallIQ  stats.Counter
	stRobOcc       stats.Mean

	// Engine-level demand telemetry for prefix sharing: per-context
	// high-watermarks of ROB and LSQ occupancy (the max across contexts,
	// since forContexts divides both capacities evenly). Excluded from
	// the run's stats.Set.
	demROB iq.Watermark
	demLSQ iq.Watermark
}

// context is one hardware context: a private front end (with branch
// predictor and BTB), renamer, reorder buffer and load/store queue over
// the shared back end.
type context struct {
	id     int
	stream trace.Stream
	bp     *bpred.Predictor
	btb    *bpred.BTB
	fe     *pipeline.FrontEnd
	ren    *pipeline.Renamer
	rob    *pipeline.ROB
	lsq    *pipeline.LSQ

	workload  string
	committed int64

	// commitFn is the ROB commit callback, bound once per context.
	commitFn func(*uop.UOp)
}

// NewEngine builds a machine over the given workload streams, one per
// hardware context. With one stream the ROB and LSQ keep their full
// configured capacities; with several, the capacities are divided evenly
// among the contexts and the queue designs' per-register tables are
// replicated per context.
func NewEngine(cfg Config, streams []trace.Stream) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := len(streams)
	if n < 1 {
		return nil, fmt.Errorf("sim: SMT needs at least one stream")
	}
	robEach, lsqEach := cfg.forContexts(n)
	q, err := cfg.buildQueue()
	if err != nil {
		return nil, err
	}
	hier, err := mem.NewHierarchy(cfg.Memory)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:  cfg,
		q:    q,
		hier: hier,
		fus:  pipeline.NewFUPool(cfg.FUPerClass),
	}
	for i, s := range streams {
		th, err := e.newContext(i, s, robEach, lsqEach, nil, nil)
		if err != nil {
			return nil, err
		}
		e.ctxs = append(e.ctxs, th)
	}
	e.bindCallbacks()
	return e, nil
}

// newContext builds one hardware context over the engine's shared
// hierarchy and queue. bp and btb, if non-nil, supply pre-trained branch
// structures (checkpoint forks); otherwise fresh ones are built.
func (e *Engine) newContext(id int, s trace.Stream, robSize, lsqSize int, bp *bpred.Predictor, btb *bpred.BTB) (*context, error) {
	var err error
	if bp == nil {
		bp, err = bpred.NewPredictor(e.cfg.BranchPredictor)
		if err != nil {
			return nil, err
		}
	}
	if btb == nil {
		btb, err = bpred.NewBTB(e.cfg.BTBEntries, e.cfg.BTBWays)
		if err != nil {
			return nil, err
		}
	}
	feCfg := pipeline.FrontEndConfig{
		FetchWidth:       e.cfg.FetchWidth,
		MaxBranches:      e.cfg.MaxBranches,
		FetchToDecode:    e.cfg.FetchToDecode,
		DecodeToDispatch: e.cfg.DecodeToDispatch,
		ExtraDispatch:    e.q.ExtraDispatchStages(),
		BufferCap:        (e.cfg.FetchToDecode + e.cfg.DecodeToDispatch + 10) * e.cfg.FetchWidth,
	}
	th := &context{
		id:       id,
		stream:   s,
		bp:       bp,
		btb:      btb,
		fe:       pipeline.NewFrontEnd(feCfg, s, bp, btb, e.hier.L1I),
		ren:      pipeline.NewRenamer(),
		rob:      pipeline.NewROB(robSize),
		workload: s.Name(),
	}
	th.lsq = pipeline.NewLSQ(lsqSize, e.hier.L1D, e.hier.EQ, e.q, e.cfg.CacheRdPorts, e.cfg.CacheWrPorts)
	e.bindCommit(th)
	return th, nil
}

// bindCommit (re)binds a context's ROB commit callback to e and th.
func (e *Engine) bindCommit(th *context) {
	th.commitFn = func(u *uop.UOp) {
		th.committed++
		e.stCommitted.Inc()
		switch {
		case u.IsStore():
			th.lsq.CommitStore(u)
		case u.IsLoad():
			th.lsq.Remove(u)
		}
	}
}

// bindCallbacks (re)binds the issue loop's shared callbacks to e.
func (e *Engine) bindCallbacks() {
	e.tryIssueFn = func(u *uop.UOp) bool { return e.fus.TryIssue(e.cycle, u) }
}

// Engine event ops (mem.Handler dispatch codes). Issue schedules
// completion events against the shared queue as identifiable refs, so an
// active clone could remap them (none are pending at the inExec == 0
// boundaries clones are taken at, but the mapping is registered anyway).
const (
	// engOpExecDone (arg nil): a load's EA calculation finished — it
	// leaves execution; the LSQ takes over.
	engOpExecDone uint8 = iota
	// engOpWbDone (arg *uop.UOp): an instruction completed — leave
	// execution and write back to the queue.
	engOpWbDone
)

// HandleEvent implements mem.Handler.
func (e *Engine) HandleEvent(op uint8, now int64, _ mem.Kind, arg any) {
	switch op {
	case engOpExecDone:
		e.inExec--
	case engOpWbDone:
		e.inExec--
		e.q.Writeback(now, arg.(*uop.UOp))
	}
}

// Queue exposes the shared scheduler under test.
func (e *Engine) Queue() iq.Queue { return e.q }

// Demands returns the machine's demand curves: the queue design's own
// (chain wires, occupancy) plus the engine-level ROB and LSQ watermarks.
// See iq/demand.go; the slices are owned by the engine.
func (e *Engine) Demands() []iq.DemandCurve {
	ds := append([]iq.DemandCurve(nil), e.q.Demands()...)
	ds = append(ds,
		iq.DemandCurve{Dim: "rob", Steps: e.demROB.Steps},
		iq.DemandCurve{Dim: "lsq", Steps: e.demLSQ.Steps})
	return ds
}

// Cycle returns the current cycle number.
func (e *Engine) Cycle() int64 { return e.cycle }

// Committed returns the total instructions retired across all contexts.
func (e *Engine) Committed() int64 {
	var sum int64
	for _, th := range e.ctxs {
		sum += th.committed
	}
	return sum
}

// Contexts returns the number of hardware contexts.
func (e *Engine) Contexts() int { return len(e.ctxs) }

// Step advances the machine one cycle.
func (e *Engine) Step() {
	c := e.cycle
	n := len(e.ctxs)

	// 1. Memory system and scheduled core events (completions,
	//    writebacks, chain suspensions).
	e.hier.Tick(c)

	// 2. Commit, in order, up to the commit width — shared bandwidth with
	//    rotating priority among contexts.
	commits := 0
	width := e.cfg.CommitWidth
	for i := 0; i < n && width > 0; i++ {
		th := e.ctxs[(int(c)+i)%n]
		done := th.rob.Commit(c, width, th.commitFn)
		commits += done
		width -= done
	}

	// 3. Scheduler-internal work: wire propagation, promotion, pushdown,
	//    deadlock recovery, or array advance.
	e.q.BeginCycle(c)

	// 4. Issue and begin execution.
	e.issue(c)

	// 5. The LSQs start eligible cache accesses and drain retired stores.
	for _, th := range e.ctxs {
		th.lsq.Tick(c)
	}

	// 6. In-order dispatch from the front-end buffers, round-robin.
	if e.dispatch(c) > 0 {
		// ROB and LSQ occupancy only rise at dispatch and only fall at
		// commit (which precedes dispatch within the cycle), so the
		// post-dispatch value is the cycle's maximum.
		maxRob, maxLsq := 0, 0
		for _, th := range e.ctxs {
			if l := th.rob.Len(); l > maxRob {
				maxRob = l
			}
			if l := th.lsq.Len(); l > maxLsq {
				maxLsq = l
			}
		}
		e.demROB.Observe(c, int64(maxRob))
		e.demLSQ.Observe(c, int64(maxLsq))
	}

	// 7. Fetch: round-robin, one context per cycle at full width (RR.1.8).
	//    A context stalled on a misprediction or I-cache miss — or whose
	//    trace has drained — yields the port to the next one; the port is
	//    consumed only by a context that actually buffers instructions.
	for i := 0; i < n; i++ {
		th := e.ctxs[(int(c)+i)%n]
		before := th.fe.BufLen()
		th.fe.Fetch(c)
		if th.fe.BufLen() != before {
			break
		}
	}

	// 8. Deadlock bookkeeping.
	active := e.inExec > 0 || e.hier.EQ.Len() > 0 || commits > 0
	robLen := 0
	for _, th := range e.ctxs {
		active = active || th.lsq.Busy()
		robLen += th.rob.Len()
	}
	e.q.EndCycle(c, active)

	e.stRobOcc.Observe(float64(robLen))
	e.cycle++
}

// SkippedCycles returns 0: the engine steps every cycle and elides none.
// It stays because the perfbench module reads it for its sim.skip_frac
// metric (perfbench/run.go).
func (e *Engine) SkippedCycles() int64 { return 0 }

func (e *Engine) issue(c int64) {
	issued := e.q.Issue(c, e.cfg.IssueWidth, e.tryIssueFn)
	e.stIssued.Add(uint64(len(issued)))
	for _, u := range issued {
		lat := int64(u.Latency())
		e.inExec++
		switch {
		case u.IsLoad():
			// The EA calculation finishes after one cycle; the LSQ takes
			// over. A load waiting in the LSQ is *not* "in execution" —
			// it may be blocked on the IQ's own progress, and counting it
			// would mask the deadlocks §4.5 recovers from. Its memory
			// traffic keeps the machine active through the event queue.
			u.EADone = c + lat
			e.hier.EQ.ScheduleRef(u.EADone, mem.Ref{H: e, Op: engOpExecDone})
		case u.IsStore():
			// Retirement (Complete) is set by the LSQ once the data is
			// also ready; the chain writeback happens at EA completion
			// (stores produce no register value).
			u.EADone = c + lat
			e.hier.EQ.ScheduleRef(u.EADone, mem.Ref{H: e, Op: engOpWbDone, Arg: u})
		default:
			u.Complete = c + lat
			e.hier.EQ.ScheduleRef(u.Complete, mem.Ref{H: e, Op: engOpWbDone, Arg: u})
		}
	}
}

// dispatch shares the dispatch width round-robin: each context advances
// in order; a context that stalls yields the remaining slots. It returns
// the number of instructions dispatched.
func (e *Engine) dispatch(c int64) int {
	n := len(e.ctxs)
	width := e.cfg.DispatchWidth
	for i := 0; i < n && width > 0; i++ {
		th := e.ctxs[(int(c)+i)%n]
		for width > 0 {
			u := th.fe.NextReady(c)
			if u == nil {
				break
			}
			if th.rob.Full() {
				e.stDispStallROB.Inc()
				break
			}
			if u.Inst.Class.IsMem() && th.lsq.Full() {
				e.stDispStallLSQ.Inc()
				break
			}
			// Retag with a globally unique, age-ordered sequence number
			// and the owning context. (With one context the values the
			// front end assigned at fetch are reproduced exactly:
			// dispatch is in fetch order and both counters start at 0.)
			if !u.Renamed {
				u.Thread = th.id
				u.Seq = e.seq
				e.seq++
			}
			th.ren.Rename(u, c)
			if !e.q.Dispatch(c, u) {
				e.stDispStallIQ.Inc()
				break
			}
			th.rob.Push(u)
			if u.Inst.Class.IsMem() {
				th.lsq.Add(u)
			}
			th.fe.Pop()
			width--
		}
	}
	return e.cfg.DispatchWidth - width
}

// Warm fast-forwards every context by n instructions: cache lines are
// installed and the branch structures trained, without advancing
// simulated time. It stands in for the paper's 20-billion-instruction
// fast-forward to a checkpoint. The streams must be the same objects the
// engine was built over. With several contexts the streams are consumed
// round-robin — one instruction per context per turn, the same
// interleaving a live SMT fetch rotation produces — so the shared cache
// and predictor state a checkpoint captures matches what a cold SMT run
// warms into.
func (e *Engine) Warm(streams []trace.Stream, n int64) {
	budgets := make([]int64, len(streams))
	for i := range budgets {
		budgets[i] = n
	}
	e.warmContexts(streams, budgets)
}

// warmContexts is Warm with a per-context instruction budget. Contexts
// take turns in id order, one instruction each; a context whose budget is
// spent (or whose trace drains) drops out of the rotation and the rest
// continue.
func (e *Engine) warmContexts(streams []trace.Stream, budgets []int64) {
	n := len(streams)
	if len(e.ctxs) < n {
		n = len(e.ctxs)
	}
	rem := make([]int64, n)
	active := 0
	for i := 0; i < n; i++ {
		rem[i] = budgets[i]
		if rem[i] > 0 {
			active++
		}
	}
	for active > 0 {
		for i := 0; i < n; i++ {
			if rem[i] <= 0 {
				continue
			}
			in, ok := streams[i].Next()
			if !ok {
				rem[i] = 0
				active--
				continue
			}
			e.hier.WarmInst(in.PC)
			if in.Class.IsMem() {
				e.hier.WarmData(in.Addr, in.Class == isa.Store)
			}
			e.ctxs[i].fe.Train(in)
			if rem[i]--; rem[i] == 0 {
				active--
			}
		}
	}
}

// runHooked simulates until the total committed instructions reach the
// budget (or every trace drains), calling hook, if non-nil, before each
// Step while the machine is still at a cycle boundary (the
// prefix-sharing ladder snapshots the reference machine there). A safety
// valve aborts pathologically stuck runs.
func (e *Engine) runHooked(maxInstructions int64, hook func(*Engine)) error {
	if maxInstructions < 1 {
		return fmt.Errorf("sim: instruction budget %d", maxInstructions)
	}
	limit := maxInstructions*400 + 1_000_000
	for e.Committed() < maxInstructions {
		allDone := true
		for _, th := range e.ctxs {
			if !th.fe.Done() || th.rob.Len() > 0 {
				allDone = false
			}
		}
		if allDone {
			break // finite traces fully drained
		}
		if e.cycle > limit {
			if len(e.ctxs) == 1 {
				return fmt.Errorf("sim: no forward progress after %d cycles (%d/%d committed, %s on %s)",
					e.cycle, e.Committed(), maxInstructions, e.q.Name(), e.ctxs[0].workload)
			}
			return fmt.Errorf("sim: SMT run stuck after %d cycles (%d/%d committed)",
				e.cycle, e.Committed(), maxInstructions)
		}
		if hook != nil {
			hook(e)
		}
		e.Step()
	}
	return nil
}
