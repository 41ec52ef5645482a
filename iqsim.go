// Package iqsim is a cycle-level simulator reproducing "A Scalable
// Instruction Queue Design Using Dependence Chains" (Raasch, Binkert &
// Reinhardt, ISCA 2002).
//
// It models the paper's full machine — an 8-wide out-of-order processor
// with the Table 1 pipeline, branch predictors and event-driven memory
// hierarchy — around five pluggable instruction-queue designs:
//
//   - the ideal single-cycle monolithic queue,
//   - the paper's segmented queue scheduled by dependence chains
//     (with pushdown, bypass, hit/miss and left/right predictors, finite
//     chain wires, deadlock recovery, SMT support and dynamic segment
//     gating),
//   - the prescheduling baseline of Michaud & Seznec,
//   - the distance scheme of Canal & González, and
//   - the dependence-based FIFOs of Palacharla, Jouppi & Smith.
//
// Quick start:
//
//	cfg := iqsim.Segmented(512, 128, true, true)
//	res, err := iqsim.Run(cfg, "swim", 1, 100_000, 300_000)
//	fmt.Println(res.IPC)
//
// The examples/ directory contains runnable walkthroughs, cmd/iqbench
// regenerates every table and figure of the paper, and EXPERIMENTS.md
// records paper-versus-measured results.
package iqsim

import (
	"repro/internal/core"
	"repro/internal/presched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Config is a full processor configuration (Table 1 defaults plus the
// selected queue design). Construct one with Ideal, Segmented or
// Prescheduled, then adjust fields as needed.
type Config = sim.Config

// Result reports a completed simulation: IPC, cycle and instruction
// counts, and the full statistics set (scheduler, memory, branch and
// pipeline counters).
type Result = sim.Result

// SegmentedOptions is the segmented queue's parameter block
// (Config.Segmented): segment geometry, chain-wire budget, predictor and
// enhancement switches.
type SegmentedOptions = core.Config

// PreschedOptions is the prescheduling queue's parameter block
// (Config.Presched).
type PreschedOptions = presched.Config

// Ideal returns the Table 1 machine with an ideal single-cycle monolithic
// instruction queue of the given capacity.
func Ideal(iqSize int) Config { return sim.DefaultConfig(sim.QueueIdeal, iqSize) }

// Segmented returns the Table 1 machine with the paper's segmented,
// dependence-chain-scheduled IQ: 32-entry segments, the given total
// capacity and chain-wire budget (0 = unlimited), and optionally the load
// hit/miss predictor (§4.4) and left/right operand predictor (§4.3).
// Pushdown (§4.1), dispatch bypass (§4.2) and deadlock recovery (§4.5)
// are enabled; disable or tune them through Config.Segmented.
func Segmented(iqSize, maxChains int, useHMP, useLRP bool) Config {
	return sim.SegmentedConfig(iqSize, maxChains, useHMP, useLRP)
}

// Prescheduled returns the Table 1 machine with the Michaud & Seznec
// prescheduling queue: a 32-entry issue buffer plus 12-wide scheduling
// rows totalling the given slot count.
func Prescheduled(totalSlots int) Config { return sim.PrescheduledConfig(totalSlots) }

// FIFOBased returns the Table 1 machine with the dependence-based FIFO
// queue of Palacharla, Jouppi & Smith (the paper's related work):
// depth-8 FIFOs totalling the given slot count, with wakeup/select over
// the FIFO heads only.
func FIFOBased(totalSlots int) Config { return sim.FIFOConfig(totalSlots) }

// Distance returns the Table 1 machine with Canal & González's distance
// scheme (the paper's related work): a 32-entry wait buffer holding
// unpredictable-latency instructions *before* a 12-wide scheduling array,
// issuing directly from the oldest row.
func Distance(totalSlots int) Config { return sim.DistanceConfig(totalSlots) }

// Run simulates n instructions of the named workload (one of Workloads)
// on the configured machine, after functionally fast-forwarding warm
// instructions to install cache lines and train the branch structures.
// Runs are deterministic in (cfg, workload, seed, n, warm).
func Run(cfg Config, workload string, seed uint64, n, warm int64) (*Result, error) {
	return sim.RunContexts(cfg, []sim.ContextSpec{{Workload: workload, Seed: seed, Warm: warm}}, n)
}

// SMTResult reports a simultaneous-multithreading run: aggregate
// throughput plus per-context retirement counts (Result.PerThread).
type SMTResult = sim.Result

// RunSMT simulates the §7 future-work machine: the configured queue,
// function units and memory hierarchy shared by one hardware context per
// named workload (round-robin fetch and dispatch). n is the total
// committed-instruction budget across contexts; each context is
// fast-forwarded warm instructions first. Context i uses seed+i.
func RunSMT(cfg Config, workloads []string, seed uint64, n, warm int64) (*SMTResult, error) {
	specs := make([]sim.ContextSpec, len(workloads))
	for i, w := range workloads {
		specs[i] = sim.ContextSpec{Workload: w, Seed: seed + uint64(i), Warm: warm}
	}
	return sim.RunContexts(cfg, specs, n)
}

// Workloads returns the eight SPEC CPU2000-like workload names of the
// paper's evaluation, sorted: ammp, applu, equake, gcc, mgrid, swim,
// twolf, vortex.
func Workloads() []string { return trace.Names() }

// Workload builds the named workload's instruction stream directly, for
// callers that drive a sim.Engine (or their own tooling) by hand.
func Workload(name string, seed uint64) (trace.Stream, error) {
	return trace.New(name, seed)
}

// WorkloadBuilder constructs custom workloads: a loop nest of basic
// blocks with per-instance address and branch-outcome callbacks (see
// trace.Builder and examples/customworkload). RunStream simulates one.
type WorkloadBuilder = trace.Builder

// NewWorkloadBuilder starts a custom workload named name whose static
// instructions get PCs from pcBase upward.
func NewWorkloadBuilder(name string, pcBase uint64) *WorkloadBuilder {
	return trace.NewBuilder(name, pcBase)
}

// RunStream simulates n instructions of an arbitrary stream (for
// example, one built with NewWorkloadBuilder) on the configured machine,
// fast-forwarding warm instructions first.
func RunStream(cfg Config, s trace.Stream, n, warm int64) (*Result, error) {
	streams := []trace.Stream{s}
	e, err := sim.NewEngine(cfg, streams)
	if err != nil {
		return nil, err
	}
	e.Warm(streams, warm)
	return e.Run(n)
}
