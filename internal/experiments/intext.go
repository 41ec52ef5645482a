package experiments

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
)

// InTextResult holds the paper's in-text measurements for one benchmark.
type InTextResult struct {
	// §4.4/§6.1: hit/miss predictor quality (HMP-only configuration).
	HMPAccuracy float64
	HMPCoverage float64
	HitRate     float64
	// §4.3: fraction of dispatched instructions with two outstanding
	// operands produced in different chains (base configuration).
	TwoChainFraction float64
	// §4.4: fraction of chains headed by loads in the base design (the
	// paper reports an average of 65%).
	LoadHeadShare float64
	// §4.5: fraction of cycles spent in detected deadlock, and recoveries
	// (combined-predictor configuration with 128 chains, where LRP
	// mispredictions make deadlock possible).
	DeadlockCycleFraction float64
	Recoveries            float64
	// §6.1: average ready instructions in segment 0 and in the whole
	// queue (base, unlimited chains).
	ReadySeg0  float64
	ReadyTotal float64
	// Segment-0 share of all ready instructions.
	ReadySeg0Share float64
}

// inTextJobs enumerates the in-text measurements' grid.
func inTextJobs(o Options) []job {
	var jobs []job
	for _, wl := range o.benchmarks() {
		jobs = append(jobs,
			job{key: "base/" + wl, cfg: sim.SegmentedConfig(512, 0, false, false), wl: wl},
			job{key: "hmp/" + wl, cfg: sim.SegmentedConfig(512, 0, true, false), wl: wl},
			job{key: "comb128/" + wl, cfg: sim.SegmentedConfig(512, 128, true, true), wl: wl},
		)
	}
	return jobs
}

// InTextFrom assembles the in-text measurements from already-computed
// results.
func InTextFrom(o Options, res map[string]*sim.Result) (map[string]*InTextResult, error) {
	benches := o.benchmarks()
	if err := requireResults(res, inTextJobs(o)); err != nil {
		return nil, err
	}
	out := make(map[string]*InTextResult, len(benches))
	for _, wl := range benches {
		base := res["base/"+wl].Stats
		hmp := res["hmp/"+wl].Stats
		comb := res["comb128/"+wl]

		r := &InTextResult{}
		r.HMPAccuracy = hmp.MustGet("hmp_hit_pred_accuracy")
		r.HMPCoverage = hmp.MustGet("hmp_hit_coverage")
		r.HitRate = hmp.MustGet("hmp_actual_hit_rate")
		if disp := base.MustGet("iq_dispatched"); disp > 0 {
			r.TwoChainFraction = base.MustGet("two_outstanding_diff_chains") / disp
		}
		if heads := base.MustGet("chain_heads"); heads > 0 {
			r.LoadHeadShare = base.MustGet("chain_heads_load") / heads
		}
		if cyc := comb.Stats.MustGet("cycles"); cyc > 0 {
			r.DeadlockCycleFraction = comb.Stats.MustGet("deadlock_cycles") / cyc
		}
		r.Recoveries = comb.Stats.MustGet("deadlock_recoveries")
		r.ReadySeg0 = base.MustGet("iq_ready_seg0_avg")
		r.ReadyTotal = base.MustGet("iq_ready_total_avg")
		if r.ReadyTotal > 0 {
			r.ReadySeg0Share = r.ReadySeg0 / r.ReadyTotal
		}
		out[wl] = r
	}
	return out, nil
}

// InTextTable renders the in-text measurements.
func InTextTable(rs map[string]*InTextResult) *stats.Table {
	t := stats.NewTable("benchmark",
		"hmp-acc", "hmp-cov", "hit-rate", "two-chain", "load-heads", "deadlock", "ready-seg0", "seg0-share")
	for _, wl := range stats.SortedNames(rs) {
		r := rs[wl]
		t.AddRow(wl, map[string]string{
			"hmp-acc":    fmt.Sprintf("%.1f%%", 100*r.HMPAccuracy),
			"hmp-cov":    fmt.Sprintf("%.1f%%", 100*r.HMPCoverage),
			"hit-rate":   fmt.Sprintf("%.1f%%", 100*r.HitRate),
			"two-chain":  fmt.Sprintf("%.1f%%", 100*r.TwoChainFraction),
			"load-heads": fmt.Sprintf("%.1f%%", 100*r.LoadHeadShare),
			"deadlock":   fmt.Sprintf("%.3f%%", 100*r.DeadlockCycleFraction),
			"ready-seg0": fmt.Sprintf("%.1f", r.ReadySeg0),
			"seg0-share": fmt.Sprintf("%.1f%%", 100*r.ReadySeg0Share),
		})
	}
	return t
}

// AblationResult compares the full segmented design against single-feature
// ablations (DESIGN.md §5): pushdown off, bypass off, instant chain wires,
// and two-cycle-increment thresholds versus the design defaults.
type AblationResult struct {
	Benchmarks []string
	// IPC[config][bench].
	IPC map[string]map[string]float64
}

// AblationConfigs lists the ablation configurations, in report order.
var AblationConfigs = []string{"full", "no-pushdown", "no-bypass", "instant-wires"}

// ablationConfig builds one named ablation configuration.
func ablationConfig(name string) sim.Config {
	cfg := sim.SegmentedConfig(512, 128, true, true)
	switch name {
	case "no-pushdown":
		cfg.Segmented.Pushdown = false
	case "no-bypass":
		cfg.Segmented.Bypass = false
	case "instant-wires":
		cfg.Segmented.InstantWires = true
	}
	return cfg
}

// ablationJobs enumerates the ablation grid in report order.
func ablationJobs(o Options) []job {
	var jobs []job
	for _, wl := range o.benchmarks() {
		for _, name := range AblationConfigs {
			jobs = append(jobs, job{key: name + "/" + wl, cfg: ablationConfig(name), wl: wl})
		}
	}
	return jobs
}

// AblationsFrom assembles the ablation comparison from already-computed
// results.
func AblationsFrom(o Options, res map[string]*sim.Result) (*AblationResult, error) {
	benches := o.benchmarks()
	if err := requireResults(res, ablationJobs(o)); err != nil {
		return nil, err
	}
	out := &AblationResult{Benchmarks: benches, IPC: make(map[string]map[string]float64)}
	for _, name := range AblationConfigs {
		out.IPC[name] = make(map[string]float64)
		for _, wl := range benches {
			out.IPC[name][wl] = res[name+"/"+wl].IPC
		}
	}
	return out, nil
}

// Table renders the ablation IPCs.
func (a *AblationResult) Table() *stats.Table {
	t := stats.NewTable("config", a.Benchmarks...)
	for _, name := range AblationConfigs {
		cells := make(map[string]string)
		for _, wl := range a.Benchmarks {
			cells[wl] = fmt.Sprintf("%.3f", a.IPC[name][wl])
		}
		t.AddRow(name, cells)
	}
	return t
}
