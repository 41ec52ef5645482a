package sim

import (
	"fmt"
	"strings"

	"repro/internal/stats"
	"repro/internal/trace"
)

// Result reports a completed simulation, on one hardware context or
// several.
type Result struct {
	// Workload names the context set: the workload itself on one
	// context, the per-context workloads joined with "+" on several.
	Workload     string
	QueueName    string
	Instructions int64
	Cycles       int64
	IPC          float64
	// PerThread and Workloads list each context's committed instructions
	// and workload, in context order.
	PerThread []int64
	Workloads []string
	Stats     *stats.Set
}

// Processor is an Engine and nothing more. It remains because perfbench
// reports on the machines it builds with NewEngine and steps by hand
// through (&sim.Processor{Engine: e}).Run(n); Run is Engine.Run,
// promoted.
type Processor struct {
	*Engine
}

// Run simulates until maxInstructions commit in total across contexts
// (or every trace drains) and returns the results.
func (e *Engine) Run(maxInstructions int64) (*Result, error) {
	if err := e.runHooked(maxInstructions, nil); err != nil {
		return nil, err
	}
	return e.result(), nil
}

func (e *Engine) result() *Result {
	s := stats.NewSet()
	committed := e.Committed()
	cycles := e.cycle
	if cycles == 0 {
		cycles = 1
	}
	ipc := float64(committed) / float64(cycles)
	s.Put("cycles", float64(e.cycle))
	s.Put("instructions", float64(committed))
	s.Put("ipc", ipc)
	s.Put("issued", float64(e.stIssued.Value()))
	s.Put("rob_occupancy_avg", e.stRobOcc.Value())
	s.Put("dispatch_stall_rob", float64(e.stDispStallROB.Value()))
	s.Put("dispatch_stall_lsq", float64(e.stDispStallLSQ.Value()))
	s.Put("dispatch_stall_iq", float64(e.stDispStallIQ.Value()))

	// Per-context front-end and LSQ statistics. A single-context machine
	// keeps the historical unprefixed names; a multi-context one reports
	// every context separately under thread<i>_, plus its committed count.
	res := &Result{QueueName: e.q.Name(), Instructions: committed, Cycles: e.cycle, IPC: ipc, Stats: s}
	for _, th := range e.ctxs {
		res.PerThread = append(res.PerThread, th.committed)
		res.Workloads = append(res.Workloads, th.workload)
		pfx := ""
		if len(e.ctxs) > 1 {
			pfx = fmt.Sprintf("thread%d_", th.id)
			s.Put(pfx+"committed", float64(th.committed))
		}
		s.Put(pfx+"fetched", float64(th.fe.Fetched()))
		s.Put(pfx+"branches", float64(th.fe.Branches()))
		s.Put(pfx+"branch_mispredicts", float64(th.fe.Mispredicts()))
		s.Put(pfx+"branch_mispredict_rate", stats.Ratio(th.fe.Mispredicts(), th.fe.Branches()))
		s.Put(pfx+"btb_misses", float64(th.fe.BTBMisses()))
		s.Put(pfx+"fetch_stall_branch", float64(th.fe.BranchStallCycles()))
		s.Put(pfx+"fetch_stall_icache", float64(th.fe.ICacheStallCycles()))

		s.Put(pfx+"lsq_forwards", float64(th.lsq.Forwards()))
		s.Put(pfx+"lsq_mshr_rejects", float64(th.lsq.MSHRRejects()))
		s.Put(pfx+"lsq_loads", float64(th.lsq.LoadsIssued()))
		s.Put(pfx+"lsq_store_writes", float64(th.lsq.StoreWrites()))
	}
	res.Workload = strings.Join(res.Workloads, "+")
	s.Put("fu_structural_stalls", float64(e.fus.StructuralStalls()))

	d := e.hier.L1D.Stats()
	s.Put("l1d_accesses", float64(d.Accesses))
	s.Put("l1d_miss_rate", d.MissRate())
	s.Put("l1d_delayed_hits", float64(d.DelayedHits))
	l2 := e.hier.L2.Stats()
	s.Put("l2_accesses", float64(l2.Accesses))
	s.Put("l2_miss_rate", l2.MissRate())
	s.Put("mem_fetches", float64(e.hier.Mem.Fetches()))

	e.q.CollectStats(s)
	return res
}

// RunContexts is the cold-machine run: one hardware context per spec,
// each stream built from its (workload, seed) and fast-forwarded
// round-robin over the per-context warm budgets, then n total committed
// instructions simulated. It warms exactly as NewCheckpoint does, so a
// machine forked from a checkpoint over the same specs behaves
// identically to this cold run.
func RunContexts(cfg Config, specs []ContextSpec, n int64) (*Result, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("sim: run needs at least one context")
	}
	streams := make([]trace.Stream, len(specs))
	budgets := make([]int64, len(specs))
	for i, sp := range specs {
		s, err := trace.New(sp.Workload, sp.Seed)
		if err != nil {
			return nil, err
		}
		streams[i] = s
		budgets[i] = sp.Warm
	}
	e, err := NewEngine(cfg, streams)
	if err != nil {
		return nil, err
	}
	e.warmContexts(streams, budgets)
	return e.Run(n)
}
