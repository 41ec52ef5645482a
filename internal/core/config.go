// Package core implements the paper's contribution: the segmented
// instruction queue scheduled by dependence chains.
//
// The queue is a vertical pipeline of small, identically sized segments.
// Instructions dispatch into the top (bypassing leading empty segments,
// §4.2), are promoted downward as their delay values fall below each
// segment's threshold (§3.1), and issue from segment 0 — the only segment
// with conventional wakeup/select, so cycle time is set by the segment
// size rather than the total window size.
//
// Delay values are maintained through chains (§3.2): subtrees of the
// dataflow graph rooted at variable-latency instructions. Chain heads
// broadcast promotion and issue events on one-hot chain wires, pipelined
// one segment per cycle (§3.3); members decrement their delay values on
// each observed assertion and switch to self-timed countdown when the head
// issues. A load that misses sends a suspend signal up its chain wire and
// a resume when it completes (§3.4). The register information table in the
// dispatch stage assigns chains and initial delay values.
//
// Enhancements: instruction pushdown (§4.1), dispatch bypass of empty
// segments (§4.2), a left/right operand predictor (§4.3), a load hit/miss
// predictor (§4.4), and deadlock detection/recovery (§4.5).
package core

import "fmt"

// Config parameterises the segmented IQ.
type Config struct {
	// Segments is the number of queue segments (bottom segment is the
	// issue buffer). Total capacity is Segments*SegSize.
	Segments int
	// SegSize is the number of instruction slots per segment (32 in the
	// paper's evaluation).
	SegSize int
	// IssueWidth is the machine issue width; it also bounds inter-segment
	// promotion bandwidth, as in the paper.
	IssueWidth int
	// MaxChains is the number of chain wires; 0 means unlimited (the
	// paper's "unlimited chains" model). Dispatch stalls when a new chain
	// head is needed and no wire is free.
	MaxChains int

	// UseHMP enables the load hit/miss predictor (§4.4): chains are
	// created only for loads not confidently predicted to hit.
	UseHMP bool
	// UseLRP enables the left/right operand predictor (§4.3): an
	// instruction with two outstanding operands follows only the chain of
	// the operand predicted to arrive later, and creates no chain.
	UseLRP bool

	// Pushdown enables §4.1: a nearly full segment pushes its oldest
	// ineligible instructions into an emptier segment below.
	Pushdown bool
	// Bypass enables §4.2: dispatch skips over leading empty segments.
	Bypass bool
	// DeadlockRecovery enables §4.5.
	DeadlockRecovery bool

	// InstantWires is an ablation switch: chain-wire signals reach every
	// segment and the register table in the asserting cycle instead of
	// propagating one segment per cycle.
	InstantWires bool

	// PredictedLoadLatency is the dispatch-stage latency assumption for a
	// load's value, measured from load issue: EA calculation (1) plus the
	// L1 hit latency (3).
	PredictedLoadLatency int

	// StatsEvery samples the per-cycle occupancy/readiness statistics
	// every StatsEvery cycles instead of every cycle; sampling trades
	// statistical resolution for simulation speed. 0 or 1 means every
	// cycle (exact averages);
	// simulated behaviour (IPC, cycle counts) is unaffected by any value.
	StatsEvery int

	// Threads is the number of hardware contexts sharing the queue (§7:
	// SMT). The register information table is replicated per context;
	// chains from independent threads interleave freely. 0 means 1.
	Threads int
}

// DefaultConfig returns the paper's configuration for a queue of the given
// total size: 32-entry segments, 8-wide issue, both predictors off,
// pushdown, bypass and deadlock recovery on, and the requested number of
// chain wires (0 = unlimited).
func DefaultConfig(totalEntries, maxChains int) Config {
	segs := totalEntries / 32
	if segs < 1 {
		segs = 1
	}
	return Config{
		Segments:             segs,
		SegSize:              32,
		IssueWidth:           8,
		MaxChains:            maxChains,
		Pushdown:             true,
		Bypass:               true,
		DeadlockRecovery:     true,
		PredictedLoadLatency: 4,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Segments < 1 {
		return fmt.Errorf("core: need at least one segment, got %d", c.Segments)
	}
	if c.SegSize < 1 {
		return fmt.Errorf("core: segment size %d < 1", c.SegSize)
	}
	if c.IssueWidth < 1 {
		return fmt.Errorf("core: issue width %d < 1", c.IssueWidth)
	}
	if c.MaxChains < 0 {
		return fmt.Errorf("core: negative chain count %d", c.MaxChains)
	}
	if c.PredictedLoadLatency < 1 {
		return fmt.Errorf("core: predicted load latency %d < 1", c.PredictedLoadLatency)
	}
	if c.StatsEvery < 0 {
		return fmt.Errorf("core: negative stats sampling interval %d", c.StatsEvery)
	}
	return nil
}

// threshold returns segment k's admission threshold: an instruction may be
// promoted into segment k only when its delay value is strictly below it.
// Per §3.1 the bottom segment's threshold is 2 (admitting delays 0 and 1,
// enabling back-to-back issue of single-cycle dependences) and thresholds
// grow by uniform increments of two.
func threshold(k int) int { return 2 * (k + 1) }
