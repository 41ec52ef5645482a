// Package sim assembles the full processor of Table 1 around a pluggable
// instruction-queue design and drives it cycle by cycle over a workload
// trace.
package sim

import (
	"fmt"

	"repro/internal/bpred"
	"repro/internal/core"
	"repro/internal/distiq"
	"repro/internal/fifoiq"
	"repro/internal/iq"
	"repro/internal/mem"
	"repro/internal/presched"
)

// QueueKind selects the scheduler design under evaluation.
type QueueKind string

// The queue designs available: the three the paper evaluates plus the
// FIFO-based design of Palacharla et al. from its related work.
const (
	// QueueIdeal is the single-cycle monolithic conventional IQ.
	QueueIdeal QueueKind = "ideal"
	// QueueSegmented is the paper's segmented, chain-scheduled IQ.
	QueueSegmented QueueKind = "segmented"
	// QueuePrescheduled is Michaud & Seznec's prescheduling IQ.
	QueuePrescheduled QueueKind = "prescheduled"
	// QueueFIFO is Palacharla et al.'s dependence-based FIFO IQ.
	QueueFIFO QueueKind = "fifos"
	// QueueDistance is Canal & González's distance scheme (wait buffer
	// before the scheduling array).
	QueueDistance QueueKind = "distance"
)

// Config is the full processor configuration (Table 1 defaults).
type Config struct {
	// Queue selects the IQ design; QueueSize its total capacity.
	Queue     QueueKind
	QueueSize int
	// Segmented holds the chain-IQ parameters (used when Queue ==
	// QueueSegmented). If zero-valued it is derived from QueueSize.
	Segmented core.Config
	// Presched holds the prescheduling parameters (used when Queue ==
	// QueuePrescheduled). If zero-valued it is derived from QueueSize.
	Presched presched.Config
	// FIFO holds the FIFO-queue parameters (used when Queue ==
	// QueueFIFO). If zero-valued it is derived from QueueSize.
	FIFO fifoiq.Config
	// Distance holds the distance-scheme parameters (used when Queue ==
	// QueueDistance). If zero-valued it is derived from QueueSize.
	Distance distiq.Config

	FetchWidth       int
	DispatchWidth    int
	IssueWidth       int
	CommitWidth      int
	MaxBranches      int
	FetchToDecode    int
	DecodeToDispatch int

	// ROBSize defaults to 3x QueueSize (§5); LSQSize to QueueSize.
	ROBSize int
	LSQSize int

	FUPerClass   int
	CacheRdPorts int
	CacheWrPorts int

	BranchPredictor bpred.Config
	BTBEntries      int
	BTBWays         int

	Memory mem.HierarchyConfig
}

// DefaultConfig returns the Table 1 machine with the given IQ design and
// size.
func DefaultConfig(kind QueueKind, iqSize int) Config {
	return Config{
		Queue:            kind,
		QueueSize:        iqSize,
		FetchWidth:       8,
		DispatchWidth:    8,
		IssueWidth:       8,
		CommitWidth:      8,
		MaxBranches:      3,
		FetchToDecode:    10,
		DecodeToDispatch: 5,
		ROBSize:          3 * iqSize,
		LSQSize:          iqSize,
		FUPerClass:       8,
		CacheRdPorts:     8,
		CacheWrPorts:     8,
		BranchPredictor:  bpred.DefaultConfig(),
		BTBEntries:       4096,
		BTBWays:          4,
		Memory:           mem.DefaultHierarchyConfig(),
	}
}

// SegmentedConfig returns the paper's standard segmented-IQ machine:
// 32-entry segments with the given chain-wire budget (0 = unlimited) and
// predictor selection.
func SegmentedConfig(iqSize, maxChains int, useHMP, useLRP bool) Config {
	cfg := DefaultConfig(QueueSegmented, iqSize)
	cfg.Segmented = core.DefaultConfig(iqSize, maxChains)
	cfg.Segmented.UseHMP = useHMP
	cfg.Segmented.UseLRP = useLRP
	return cfg
}

// PrescheduledConfig returns the prescheduling baseline machine with the
// given total slot count (32-entry buffer + 12-wide rows).
func PrescheduledConfig(totalSlots int) Config {
	cfg := DefaultConfig(QueuePrescheduled, totalSlots)
	cfg.Presched = presched.DefaultConfig(totalSlots)
	return cfg
}

// FIFOConfig returns the Palacharla-style FIFO-queue machine with the
// given total slot count (depth-8 FIFOs).
func FIFOConfig(totalSlots int) Config {
	cfg := DefaultConfig(QueueFIFO, totalSlots)
	cfg.FIFO = fifoiq.DefaultConfig(totalSlots)
	return cfg
}

// DistanceConfig returns the Canal & González distance-scheme machine
// with the given total slot count (32-entry wait buffer + 12-wide rows).
func DistanceConfig(totalSlots int) Config {
	cfg := DefaultConfig(QueueDistance, totalSlots)
	cfg.Distance = distiq.DefaultConfig(totalSlots)
	return cfg
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.QueueSize < 1 {
		return fmt.Errorf("sim: queue size %d", c.QueueSize)
	}
	for name, v := range map[string]int{
		"fetch width": c.FetchWidth, "dispatch width": c.DispatchWidth,
		"issue width": c.IssueWidth, "commit width": c.CommitWidth,
		"rob size": c.ROBSize, "lsq size": c.LSQSize,
		"fu per class": c.FUPerClass,
	} {
		if v < 1 {
			return fmt.Errorf("sim: non-positive %s", name)
		}
	}
	switch c.Queue {
	case QueueIdeal, QueueSegmented, QueuePrescheduled, QueueFIFO, QueueDistance:
	default:
		return fmt.Errorf("sim: unknown queue kind %q", c.Queue)
	}
	return nil
}

// forContexts adjusts the configuration in place for an n-context
// machine and returns the per-context ROB and LSQ capacities. With one
// context it is a no-op returning the full configured sizes; with
// several, the queue design's per-register tables are replicated per
// context and the ROB/LSQ capacities divided evenly (floors of 8 and 4).
// Every construction path — NewEngine, Checkpoint.Fork, LoadCheckpoint —
// goes through here, so an n-context machine is built identically no
// matter how it came to exist.
func (c *Config) forContexts(n int) (robEach, lsqEach int) {
	robEach, lsqEach = c.ROBSize, c.LSQSize
	if n <= 1 {
		return robEach, lsqEach
	}
	switch c.Queue {
	case QueueSegmented:
		if c.Segmented.Segments == 0 {
			c.Segmented = core.DefaultConfig(c.QueueSize, 0)
		}
		c.Segmented.Threads = n
	case QueuePrescheduled:
		if c.Presched.Lines == 0 {
			c.Presched = presched.DefaultConfig(c.QueueSize)
		}
		c.Presched.Threads = n
	case QueueDistance:
		if c.Distance.Lines == 0 {
			c.Distance = distiq.DefaultConfig(c.QueueSize)
		}
		c.Distance.Threads = n
	}
	if robEach = c.ROBSize / n; robEach < 8 {
		robEach = 8
	}
	if lsqEach = c.LSQSize / n; lsqEach < 4 {
		lsqEach = 4
	}
	return robEach, lsqEach
}

// buildQueue constructs the configured IQ design.
func (c Config) buildQueue() (iq.Queue, error) {
	switch c.Queue {
	case QueueIdeal:
		return iq.NewConventional(c.QueueSize), nil
	case QueueSegmented:
		sc := c.Segmented
		if sc.Segments == 0 {
			sc = core.DefaultConfig(c.QueueSize, 0)
		}
		return core.New(sc)
	case QueuePrescheduled:
		pc := c.Presched
		if pc.Lines == 0 {
			pc = presched.DefaultConfig(c.QueueSize)
		}
		return presched.New(pc)
	case QueueFIFO:
		fc := c.FIFO
		if fc.FIFOs == 0 {
			fc = fifoiq.DefaultConfig(c.QueueSize)
		}
		return fifoiq.New(fc)
	case QueueDistance:
		dc := c.Distance
		if dc.Lines == 0 {
			dc = distiq.DefaultConfig(c.QueueSize)
		}
		return distiq.New(dc)
	}
	return nil, fmt.Errorf("sim: unknown queue kind %q", c.Queue)
}
