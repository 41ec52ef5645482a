package experiments

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"

	"repro/internal/bpred"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Pre-screened mega-grid sweeps. A mega-grid enumerates far more
// configurations than anyone wants to simulate (the "mega" preset is
// ~100k points); the analytic model (internal/model) scores every point
// in microseconds, the predicted IPC-versus-entries Pareto frontier plus
// a seeded random audit sample are simulated through the usual
// checkpoint/prefix-sharing machinery, and the audit sample's rank
// correlation and MAPE quantify how much the screening can be trusted —
// on every sweep, not just in the calibration tests (DESIGN.md §12).

// profileInsts is the instruction budget trace.Characterize analyses per
// workload when scoring a pre-screened sweep — the same budget the
// model's calibration tests profile with, so a sweep's estimates match
// the calibrated regime.
const profileInsts = 50_000

// profileCache builds one trace.Profile per workload and reuses it for
// every grid point. Characterize drains a fresh trace stream, so the
// profile cannot be rebuilt from a stream already feeding a simulation —
// each cache miss opens its own source — and caching saves both that
// stream and the dependence-window analysis on re-scores.
type profileCache struct {
	seed uint64
	mu   sync.Mutex
	m    map[string]*profileEntry
}

type profileEntry struct {
	once sync.Once
	p    trace.Profile
	err  error
}

func newProfileCache(seed uint64) *profileCache {
	return &profileCache{seed: seed, m: make(map[string]*profileEntry)}
}

func (c *profileCache) get(wl string) (trace.Profile, error) {
	c.mu.Lock()
	e := c.m[wl]
	if e == nil {
		e = new(profileEntry)
		c.m[wl] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		s, err := trace.New(wl, c.seed)
		if err != nil {
			e.err = err
			return
		}
		e.p = trace.Characterize(s, profileInsts)
	})
	return e.p, e.err
}

// PrescreenGrids lists the mega-grid presets by name: "mega" is the
// ~100k-point full grid, "ci" a sub-thousand-point-per-workload grid the
// CI prescreen job simulates end to end in minutes.
var PrescreenGrids = []string{"mega", "ci"}

// prescreenPoint is one enumerated grid point before any scoring.
type prescreenPoint struct {
	key string
	cfg sim.Config
}

// prescreenGrid enumerates a preset. Keys are deterministic and carry
// every swept dimension; the enumeration order is fixed, so the seeded
// audit sample is reproducible across processes.
func prescreenGrid(name string) ([]prescreenPoint, error) {
	type bpv struct {
		label string
		cfg   bpred.Config
	}
	large := bpred.DefaultConfig()
	small := large
	small.GlobalHistBits, small.LocalHistBits, small.LocalEntries, small.ChoiceHistBits = 8, 8, 256, 8
	tiny := large
	tiny.GlobalHistBits, tiny.LocalHistBits, tiny.LocalEntries, tiny.ChoiceHistBits = 5, 5, 64, 5

	var (
		iqSizes []int
		robfs   []float64
		lsqfs   []float64
		bps     []bpv
		widths  []int
		chains  func(iq int) []int
	)
	switch name {
	case "mega":
		for s := 32; s <= 512; s += 32 {
			iqSizes = append(iqSizes, s)
		}
		robfs = []float64{1, 1.5, 2, 3}
		lsqfs = []float64{0.5, 1, 2}
		bps = []bpv{{"bpL", large}, {"bpS", small}, {"bpT", tiny}}
		widths = []int{8, 4}
		chains = func(iq int) []int {
			lim := iq
			if lim > 256 {
				lim = 256
			}
			var out []int
			for c := 0; c <= lim; c += 32 {
				out = append(out, c)
			}
			return out
		}
	case "ci":
		iqSizes = []int{32, 64, 128, 256}
		robfs = []float64{1, 2, 3}
		lsqfs = []float64{0.5, 1}
		bps = []bpv{{"bpL", large}, {"bpS", small}}
		widths = []int{8}
		chains = func(iq int) []int { return []int{0, iq / 4, iq / 2} }
	default:
		return nil, fmt.Errorf("experiments: unknown prescreen grid %q (have %s)",
			name, strings.Join(PrescreenGrids, ", "))
	}

	base := func(design string, iq int) sim.Config {
		switch design {
		case "ideal":
			return sim.DefaultConfig(sim.QueueIdeal, iq)
		case "prescheduled":
			return sim.PrescheduledConfig(iq)
		case "fifos":
			return sim.FIFOConfig(iq)
		default: // distance
			return sim.DistanceConfig(iq)
		}
	}

	var pts []prescreenPoint
	add := func(design string, iq int, cfg sim.Config, chPart string) {
		for _, rf := range robfs {
			for _, lf := range lsqfs {
				for _, w := range widths {
					for _, bp := range bps {
						c := cfg
						c.ROBSize = int(rf * float64(iq))
						c.LSQSize = int(lf * float64(iq))
						c.FetchWidth, c.DispatchWidth, c.IssueWidth, c.CommitWidth = w, w, w, w
						c.BranchPredictor = bp.cfg
						key := fmt.Sprintf("%s/%d%s/rob%d/lsq%d/w%d/%s",
							design, iq, chPart, c.ROBSize, c.LSQSize, w, bp.label)
						pts = append(pts, prescreenPoint{key: key, cfg: c})
					}
				}
			}
		}
	}
	for _, iq := range iqSizes {
		for _, d := range []string{"ideal", "prescheduled", "fifos", "distance"} {
			add(d, iq, base(d, iq), "")
		}
		for _, ch := range chains(iq) {
			add("segmented", iq, sim.SegmentedConfig(iq, ch, true, true), fmt.Sprintf("/ch%d", ch))
		}
	}
	return pts, nil
}

// PrescreenOptions scales a pre-screened sweep. Zero values take the
// defaults below.
type PrescreenOptions struct {
	// Grid names the preset ("mega" or "ci").
	Grid string
	// Audit is the number of seeded-random grid points simulated per
	// workload regardless of the frontier prediction, to measure the
	// estimator's error where it was not trusted.
	Audit int
	// Slack is the frontier's relative safety margin: points predicted
	// within Slack of their entries-group's best are simulated too.
	Slack float64
}

// DefaultPrescreenOptions returns the standard screening parameters.
func DefaultPrescreenOptions() PrescreenOptions {
	return PrescreenOptions{Grid: "mega", Audit: 24, Slack: 0.05}
}

func (po PrescreenOptions) withDefaults() PrescreenOptions {
	d := DefaultPrescreenOptions()
	if po.Grid == "" {
		po.Grid = d.Grid
	}
	if po.Audit == 0 {
		po.Audit = d.Audit
	}
	if po.Slack == 0 {
		po.Slack = d.Slack
	}
	return po
}

// PrescreenPoint is one simulated grid point of a pre-screened sweep.
type PrescreenPoint struct {
	Key      string
	Entries  int
	Est      float64
	Sim      float64
	Frontier bool
	Audit    bool
}

// PrescreenWorkload is one workload's screening outcome.
type PrescreenWorkload struct {
	Workload string
	// Screened counts grid points scored analytically; Frontier and
	// Audit the selection sets (which may overlap); Simulated their
	// union — the points actually run.
	Screened  int
	Frontier  int
	Audit     int
	Simulated int
	// Spearman and MAPE compare estimate against simulation on the audit
	// sample — the estimator's report card on points it did not pick.
	Spearman float64
	MAPE     float64
	// BestKey/BestIPC is the simulated best IPC-per-entry point (the
	// frontier's objective) among the simulated set.
	BestKey string
	BestIPC float64
	// Points lists every simulated point, sorted by entries then key.
	Points []PrescreenPoint
}

// PrescreenResult is a full pre-screened sweep: per-workload outcomes
// plus the pooled audit-error metrics the screening contract is checked
// against. Pooling matters: a workload whose grid is genuinely flat
// (twolf: every design within 1%) has no rank signal of its own, but its
// audit points still participate in the cross-workload correlation.
type PrescreenResult struct {
	Grid      string
	Screened  int
	Simulated int
	Spearman  float64
	MAPE      float64
	Workloads []PrescreenWorkload
}

// auditSeed derives the per-workload audit-sample seed: stable across
// processes, distinct across workloads and base seeds.
func auditSeed(seed uint64, wl string) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "prescreen-audit/%d/%s", seed, wl)
	return h.Sum64()
}

// Prescreen runs a pre-screened sweep: score the whole grid
// analytically per workload, simulate only the predicted frontier plus
// the audit sample (one batch, so warm checkpoints and prefix sharing
// apply across the selection), and report both the sweep results and
// the estimator's audit error. The returned ShardFile records the
// simulated points in the standard shard layout — byte-identical with
// and without prefix sharing, and free of screening counters, exactly
// like the experiment shards (see the shard-file comment in shard.go).
func Prescreen(o Options, po PrescreenOptions) (*PrescreenResult, *ShardFile, error) {
	if err := o.validateBenchmarks(); err != nil {
		return nil, nil, err
	}
	for _, wl := range o.benchmarks() {
		if strings.Contains(wl, "+") {
			return nil, nil, fmt.Errorf("experiments: prescreen profiles single workloads, not SMT sets (%q)", wl)
		}
	}
	po = po.withDefaults()
	if po.Audit < 2 {
		return nil, nil, fmt.Errorf("experiments: prescreen audit sample %d too small to rank (need >= 2)", po.Audit)
	}
	pts, err := prescreenGrid(po.Grid)
	if err != nil {
		return nil, nil, err
	}

	profiles := newProfileCache(o.Seed)
	type selection struct {
		wl       string
		est      []float64
		frontier map[int]bool
		audit    map[int]bool
		selected []int
	}
	var (
		sels []selection
		jobs []job
	)
	for _, wl := range o.benchmarks() {
		prof, err := profiles.get(wl)
		if err != nil {
			return nil, nil, err
		}
		est := make([]float64, len(pts))
		mpts := make([]model.Point, len(pts))
		for i, p := range pts {
			e := model.For(prof, p.cfg)
			est[i] = e.IPC
			mpts[i] = model.Point{Key: p.key, Entries: e.Entries, IPC: e.IPC}
		}
		sel := selection{wl: wl, est: est,
			frontier: make(map[int]bool), audit: make(map[int]bool)}
		for _, i := range model.Frontier(mpts, po.Slack) {
			sel.frontier[i] = true
		}
		for _, i := range model.Sample(auditSeed(o.Seed, wl), len(pts), po.Audit) {
			sel.audit[i] = true
		}
		for i := range pts {
			if sel.frontier[i] || sel.audit[i] {
				sel.selected = append(sel.selected, i)
			}
		}
		for _, i := range sel.selected {
			jobs = append(jobs, job{key: pts[i].key + "/" + wl, cfg: pts[i].cfg, wl: wl})
		}
		sels = append(sels, sel)
	}

	sf, err := o.simulate("prescreen-"+po.Grid, jobs, jobs, 0, 1)
	if err != nil {
		return nil, nil, err
	}

	out := &PrescreenResult{Grid: po.Grid}
	var pooledEst, pooledSim []float64
	for _, sel := range sels {
		pw := PrescreenWorkload{
			Workload: sel.wl,
			Screened: len(pts),
			Frontier: len(sel.frontier),
			Audit:    len(sel.audit),
		}
		var auditEst, auditSim []float64
		bestPerEntry := -1.0
		for _, i := range sel.selected {
			r := sf.Results[pts[i].key+"/"+sel.wl]
			if r == nil {
				return nil, nil, fmt.Errorf("experiments: missing prescreen result for %s/%s", pts[i].key, sel.wl)
			}
			p := PrescreenPoint{
				Key:      pts[i].key,
				Entries:  model.Entries(pts[i].cfg),
				Est:      sel.est[i],
				Sim:      r.IPC,
				Frontier: sel.frontier[i],
				Audit:    sel.audit[i],
			}
			pw.Points = append(pw.Points, p)
			if sel.audit[i] {
				auditEst = append(auditEst, p.Est)
				auditSim = append(auditSim, p.Sim)
			}
			if v := p.Sim / float64(p.Entries); v > bestPerEntry {
				bestPerEntry, pw.BestKey, pw.BestIPC = v, p.Key, p.Sim
			}
		}
		sort.Slice(pw.Points, func(a, b int) bool {
			if pw.Points[a].Entries != pw.Points[b].Entries {
				return pw.Points[a].Entries < pw.Points[b].Entries
			}
			return pw.Points[a].Key < pw.Points[b].Key
		})
		pw.Simulated = len(pw.Points)
		pw.Spearman = model.Spearman(auditEst, auditSim)
		pw.MAPE = model.MAPE(auditEst, auditSim)
		pooledEst = append(pooledEst, auditEst...)
		pooledSim = append(pooledSim, auditSim...)
		out.Screened += pw.Screened
		out.Simulated += pw.Simulated
		out.Workloads = append(out.Workloads, pw)
	}
	out.Spearman = model.Spearman(pooledEst, pooledSim)
	out.MAPE = model.MAPE(pooledEst, pooledSim)

	return out, sf, nil
}

// Summary is the one-line screening report iqbench prints in brackets.
func (r *PrescreenResult) Summary() string {
	frac := 0.0
	if r.Screened > 0 {
		frac = 100 * float64(r.Simulated) / float64(r.Screened)
	}
	return fmt.Sprintf("prescreen: %d/%d simulated (%.1f%%), audit rho %.3f, mape %.0f%%",
		r.Simulated, r.Screened, frac, r.Spearman, 100*r.MAPE)
}

// Table renders the per-workload screening outcomes.
func (r *PrescreenResult) Table() *stats.Table {
	t := stats.NewTable("workload", "screened", "frontier", "audit", "simulated", "sim%", "audit-rho", "audit-mape", "best (sim IPC/entry)")
	for _, w := range r.Workloads {
		t.AddRow(w.Workload, map[string]string{
			"screened":             fmt.Sprintf("%d", w.Screened),
			"frontier":             fmt.Sprintf("%d", w.Frontier),
			"audit":                fmt.Sprintf("%d", w.Audit),
			"simulated":            fmt.Sprintf("%d", w.Simulated),
			"sim%":                 fmt.Sprintf("%.1f%%", 100*float64(w.Simulated)/float64(w.Screened)),
			"audit-rho":            fmt.Sprintf("%.3f", w.Spearman),
			"audit-mape":           fmt.Sprintf("%.0f%%", 100*w.MAPE),
			"best (sim IPC/entry)": fmt.Sprintf("%s @ %.3f", w.BestKey, w.BestIPC),
		})
	}
	total := map[string]string{
		"screened":  fmt.Sprintf("%d", r.Screened),
		"simulated": fmt.Sprintf("%d", r.Simulated),
		"audit-rho": fmt.Sprintf("%.3f", r.Spearman),
	}
	if r.Screened > 0 {
		total["sim%"] = fmt.Sprintf("%.1f%%", 100*float64(r.Simulated)/float64(r.Screened))
		total["audit-mape"] = fmt.Sprintf("%.0f%%", 100*r.MAPE)
	}
	t.AddRow("pooled", total)
	return t
}
