// Package experiments regenerates every table and figure of the paper's
// evaluation (§6): Figure 2 (512-entry segmented IQ configurations
// relative to the ideal IQ), Table 2 (chain usage with unlimited chains),
// Figure 3 (performance across IQ sizes, including the prescheduling
// baseline), and the in-text measurements (HMP accuracy and coverage,
// two-chain instruction frequency, deadlock incidence, segment-0
// occupancy), plus the §2 related-work comparison, the §7 power proxy,
// design ablations and an SMT matrix. registry.go lists every experiment
// once; see EXPERIMENTS.md for paper-versus-measured results.
package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/bpred"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Options scales the experiments. The paper simulates 100 M instruction
// samples after a 20 G fast-forward; the defaults here are laptop-sized
// but flag-adjustable (cmd/iqbench -n / -warm).
type Options struct {
	// Instructions measured per run.
	Instructions int64
	// Warmup instructions functionally fast-forwarded before measuring.
	Warmup int64
	// Seed selects the deterministic workload instance.
	Seed uint64
	// Benchmarks restricts the workload set (nil = all eight).
	Benchmarks []string
	// Parallel bounds concurrent simulations (0 = GOMAXPROCS).
	Parallel int
	// CheckpointDir, when set, backs the warm-checkpoint cache with a
	// directory (sim.DirStore): a warmup found on disk is loaded
	// instead of re-simulated, and a warmup built here is saved for the
	// next process. Empty keeps checkpoints in-memory only. The store
	// is strictly an accelerator: an unreadable or unwritable directory
	// degrades to local warmups (counted in CkptStats) and never fails
	// the batch.
	CheckpointDir string
	// CkptStats, when non-nil, counts checkpoint-store activity.
	CkptStats *CkptStats
	// NoSkip steps every machine cycle instead of skipping provably idle
	// spans. Skipping is bit-identical by construction, so results (and
	// shard files, which deliberately omit this knob) are byte-identical
	// either way; the flag exists for cross-checking and debugging.
	NoSkip bool
	// NoPrefixShare runs every sweep-family member cold from its warm
	// checkpoint instead of forking siblings from the reference member's
	// detailed prefix (sim.RunFamily). Sharing is bit-identical by
	// construction — a sibling forks only at a point its demand curves
	// prove undiverged — so, like NoSkip, the knob changes wall-clock
	// only, is applied at fork time, and never splits checkpoint keys or
	// shard headers.
	NoPrefixShare bool
	// PrefixStats, when non-nil, counts prefix-sharing outcomes across
	// the batch's sweep families.
	PrefixStats *sim.PrefixStats
}

// CkptStats counts checkpoint-store activity across a batch: hits,
// misses, put failures, fallbacks, bytes moved.
type CkptStats = sim.StoreStats

// store returns the batch's checkpoint store, or nil when the batch
// keeps checkpoints in memory only.
func (o Options) store() *sim.DirStore {
	if o.CheckpointDir == "" {
		return nil
	}
	return &sim.DirStore{Dir: o.CheckpointDir, Stats: o.CkptStats}
}

// DefaultOptions returns the harness defaults.
func DefaultOptions() Options {
	return Options{Instructions: 40_000, Warmup: 300_000, Seed: 1}
}

func (o Options) benchmarks() []string {
	if len(o.Benchmarks) > 0 {
		return o.Benchmarks
	}
	return trace.Names()
}

func (o Options) parallel() int {
	if o.Parallel > 0 {
		return o.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// validateBenchmarks rejects unknown workload names up front, before any
// simulation (or warmup) is spent on a doomed batch. An entry may be a
// single workload or a "+"-joined context set (the SMT grid); every
// element must name a known benchmark.
func (o Options) validateBenchmarks() error {
	for _, w := range o.Benchmarks {
		for _, e := range strings.Split(w, "+") {
			if _, ok := trace.Benchmarks[e]; !ok {
				return fmt.Errorf("experiments: unknown benchmark %q (have %s)",
					e, strings.Join(trace.Names(), ", "))
			}
		}
	}
	return nil
}

// job is one simulation in a batch. wl names the ordered context set the
// machine runs: a single workload, or several joined with "+" for an SMT
// grid point (one hardware context per element).
type job struct {
	key string
	cfg sim.Config
	wl  string
}

// contexts converts a "+"-joined context set into the sim layer's
// ordered specs: context i runs element i seeded with Seed+i (the same
// convention as sim.RunSMT) and warms Warmup instructions.
func (o Options) contexts(wl string) []sim.ContextSpec {
	parts := strings.Split(wl, "+")
	specs := make([]sim.ContextSpec, len(parts))
	for i, p := range parts {
		specs[i] = sim.ContextSpec{Workload: p, Seed: o.Seed + uint64(i), Warm: o.Warmup}
	}
	return specs
}

// ckKey identifies the warmed state a job can fork from: the ordered
// context set plus everything the warmup touches — memory and
// branch-structure geometry. Grid points that only vary the queue
// design, queue size, widths or ROB/LSQ capacities share one checkpoint.
type ckKey struct {
	wl   string
	mem  mem.HierarchyConfig
	bp   bpred.Config
	btbE int
	btbW int
}

// ckCache lazily builds one checkpoint per ckKey. The first job to need a
// key pays the warmup (inside its worker slot, so distinct workloads warm
// in parallel); every later job forks the finished checkpoint. Entries
// are refcounted: retain registers every job's claim up front, and the
// last fork for a key evicts its checkpoint, so a long batch holds at
// most the warmed machines still feeding unforked grid points instead of
// every workload's template until the batch ends.
type ckCache struct {
	o Options
	// st is the cross-process checkpoint store, nil for in-memory-only
	// batches. One store per batch, so store-failure warnings print
	// once for the whole sweep.
	st *sim.DirStore
	mu sync.Mutex
	m  map[ckKey]*ckEntry
}

type ckEntry struct {
	once sync.Once
	ck   *sim.Checkpoint
	err  error
	// refs counts grid points that have yet to fork this checkpoint;
	// guarded by the cache mutex.
	refs int
}

func (c *ckCache) key(j job) ckKey {
	return ckKey{wl: j.wl, mem: j.cfg.Memory, bp: j.cfg.BranchPredictor,
		btbE: j.cfg.BTBEntries, btbW: j.cfg.BTBWays}
}

// retain registers each job's claim on its checkpoint before the batch
// starts, so forked can tell when a checkpoint has served its last grid
// point. Jobs skipped by the batch's stop flag never drop their claim;
// that only delays eviction on a batch that is already aborting.
func (c *ckCache) retain(jobs []job) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, j := range jobs {
		k := c.key(j)
		e := c.m[k]
		if e == nil {
			e = new(ckEntry)
			c.m[k] = e
		}
		e.refs++
	}
}

func (c *ckCache) get(j job) (*sim.Checkpoint, error) {
	key := c.key(j)
	c.mu.Lock()
	e := c.m[key]
	if e == nil {
		e = new(ckEntry)
		c.m[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		specs := c.o.contexts(j.wl)
		if c.st == nil {
			e.ck, e.err = sim.NewCheckpoint(j.cfg, specs...)
			return
		}
		// Hit/miss/fallback accounting lives in the DirStore; store
		// failures never surface here — LoadOrNew degrades to a local
		// warmup instead, so a broken store cannot kill the batch.
		e.ck, _, e.err = c.st.LoadOrNew(j.cfg, specs...)
	})
	return e.ck, e.err
}

// forked drops j's claim on its checkpoint. The last claim evicts the
// entry and releases the checkpoint, which also unpins its stream cursor
// so the fork source can trim the memoised suffix behind the machines
// still running (trace.ForkCursor.Release).
func (c *ckCache) forked(j job) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.m[c.key(j)]
	if e == nil {
		return
	}
	e.refs--
	if e.refs == 0 {
		if e.ck != nil {
			e.ck.Release()
		}
		delete(c.m, c.key(j))
	}
}

// run is the batch runner: fork j's checkpoint (warming it if j is first
// to the key), drop the claim, and simulate.
func (c *ckCache) run(j job, instructions int64) (*sim.Result, error) {
	ck, err := c.get(j)
	if err != nil {
		c.forked(j)
		return nil, err
	}
	// Applied at fork time rather than in the grid's configs so the
	// knob never splits checkpoint keys or shard headers.
	j.cfg.NoSkip = c.o.NoSkip
	p, err := ck.Fork(j.cfg)
	c.forked(j)
	if err != nil {
		return nil, err
	}
	return p.Run(instructions)
}

// family is a set of grid points that are sweep siblings over one warm
// checkpoint: same context set and geometry, varying only the swept
// resource bounds. sim.RunFamily simulates them together, forking each
// sibling from the reference member's detailed prefix at its divergence
// cycle instead of re-simulating it.
type family struct {
	jobs []job
}

type famKey struct {
	ck  ckKey
	fam sim.Config
}

// families groups a batch's jobs into sweep families, preserving job
// order within each family and family order of first appearance.
func (c *ckCache) families(jobs []job) []family {
	idx := make(map[famKey]int)
	var fams []family
	for _, j := range jobs {
		k := famKey{ck: c.key(j), fam: sim.FamilyKey(j.cfg)}
		i, ok := idx[k]
		if !ok {
			i = len(fams)
			idx[k] = i
			fams = append(fams, family{})
		}
		fams[i].jobs = append(fams[i].jobs, j)
	}
	return fams
}

// runFamily simulates one family over its shared checkpoint and returns
// results in member order. Claims for every member are dropped when the
// family finishes — cold-fallback members may fork the checkpoint at any
// point during the run, so it must stay live throughout.
func (c *ckCache) runFamily(f family, instructions int64) ([]*sim.Result, error) {
	defer func() {
		for _, j := range f.jobs {
			c.forked(j)
		}
	}()
	ck, err := c.get(f.jobs[0])
	if err != nil {
		return nil, err
	}
	cfgs := make([]sim.Config, len(f.jobs))
	for i, j := range f.jobs {
		cfg := j.cfg
		// Fork-time knob, like NoSkip in run: uniform across the family,
		// never in grid configs, checkpoint keys or shard headers.
		cfg.NoSkip = c.o.NoSkip
		cfgs[i] = cfg
	}
	return sim.RunFamily(ck, cfgs, instructions, !c.o.NoPrefixShare, c.o.PrefixStats)
}

// runAll executes jobs concurrently and returns results keyed by job key.
// Any simulation error aborts the batch. Two layers of reuse stack up:
// the warmup fast-forward runs once per workload (per memory/branch
// geometry) and each grid point forks the warmed checkpoint instead of
// re-warming; and within a sweep family the detailed measured prefix is
// also shared — siblings fork from the reference run at their divergence
// cycle (sim.RunFamily). Both layers are bit-identical to cold runs (see
// sim's checkpoint and prefix tests).
func (o Options) runAll(jobs []job) (map[string]*sim.Result, error) {
	if err := o.validateBenchmarks(); err != nil {
		return nil, err
	}
	cks := &ckCache{o: o, st: o.store(), m: make(map[ckKey]*ckEntry)}
	cks.retain(jobs)
	return o.runFamiliesWith(cks.families(jobs), func(f family) ([]*sim.Result, error) {
		return cks.runFamily(f, o.Instructions)
	})
}

// runAllWith is runAll with the per-job simulation injected, so the
// batch machinery is testable without running real simulations. Each job
// runs as its own single-member family.
func (o Options) runAllWith(jobs []job, run func(job) (*sim.Result, error)) (map[string]*sim.Result, error) {
	fams := make([]family, len(jobs))
	for i, j := range jobs {
		fams[i] = family{jobs: []job{j}}
	}
	return o.runFamiliesWith(fams, func(f family) ([]*sim.Result, error) {
		r, err := run(f.jobs[0])
		if err != nil {
			return nil, err
		}
		return []*sim.Result{r}, nil
	})
}

// runFamiliesWith executes families concurrently — one worker slot per
// family, members sequential within it so the reference's ladder rungs
// exist before its siblings fork — and returns results keyed by job key.
// A failed family flips an atomic stop flag: families that have not
// started yet observe it before invoking run and are skipped, rather
// than burning simulations while the batch is already doomed. The first
// error (in completion order) is returned.
func (o Options) runFamiliesWith(fams []family, run func(family) ([]*sim.Result, error)) (map[string]*sim.Result, error) {
	results := make(map[string]*sim.Result)
	var (
		mu       sync.Mutex
		firstErr error
		stop     atomic.Bool
	)
	sem := make(chan struct{}, o.parallel())
	var wg sync.WaitGroup
	for _, f := range fams {
		wg.Add(1)
		go func(f family) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if stop.Load() {
				return
			}
			rs, err := run(f)
			if err == nil && len(rs) != len(f.jobs) {
				err = fmt.Errorf("family returned %d results for %d members", len(rs), len(f.jobs))
			}
			if err != nil {
				stop.Store(true)
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("%s: %w", f.jobs[0].key, err)
				}
				mu.Unlock()
				return
			}
			mu.Lock()
			for i, j := range f.jobs {
				results[j.key] = rs[i]
			}
			mu.Unlock()
		}(f)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}

// requireResults checks that res covers a grid completely, so the From
// assemblers fail with a named missing key instead of a nil dereference
// when fed an incomplete (e.g. mis-merged) result set.
func requireResults(res map[string]*sim.Result, jobs []job) error {
	for _, j := range jobs {
		if res[j.key] == nil {
			return fmt.Errorf("experiments: missing result for %s", j.key)
		}
	}
	return nil
}

// variant describes one segmented-IQ predictor configuration of Figure 2.
type variant struct {
	name string
	hmp  bool
	lrp  bool
}

var fig2Variants = []variant{
	{"base", false, false},
	{"hmp", true, false},
	{"lrp", false, true},
	{"comb", true, true},
}

// fig2ChainCounts are the chain-wire budgets of Figure 2 (0 = unlimited).
var fig2ChainCounts = []int{0, 128, 64}

func chainLabel(n int) string {
	if n == 0 {
		return "unlimited"
	}
	return fmt.Sprintf("%d chains", n)
}

// Fig2Result holds Figure 2's data: per benchmark, per chain budget, per
// variant, performance relative to the ideal 512-entry IQ.
type Fig2Result struct {
	Benchmarks []string
	// Relative[bench][chainLabel][variant] = segmented IPC / ideal IPC.
	Relative map[string]map[string]map[string]float64
	// IdealIPC[bench] is the ideal 512-entry queue's IPC.
	IdealIPC map[string]float64
}

// fig2Jobs enumerates Figure 2's grid: a 512-entry segmented IQ
// (sixteen 32-entry segments) in twelve configurations, plus the ideal
// single-cycle 512-entry IQ they are measured against.
func fig2Jobs(o Options) []job {
	var jobs []job
	for _, wl := range o.benchmarks() {
		jobs = append(jobs, job{key: "ideal/" + wl, cfg: sim.DefaultConfig(sim.QueueIdeal, 512), wl: wl})
		for _, chains := range fig2ChainCounts {
			for _, v := range fig2Variants {
				key := fmt.Sprintf("%s/%s/%s", chainLabel(chains), v.name, wl)
				jobs = append(jobs, job{key: key, cfg: sim.SegmentedConfig(512, chains, v.hmp, v.lrp), wl: wl})
			}
		}
	}
	return jobs
}

// Fig2From assembles Figure 2 from already-computed results (a local
// batch or a merged sharded sweep).
func Fig2From(o Options, res map[string]*sim.Result) (*Fig2Result, error) {
	benches := o.benchmarks()
	if err := requireResults(res, fig2Jobs(o)); err != nil {
		return nil, err
	}
	out := &Fig2Result{
		Benchmarks: benches,
		Relative:   make(map[string]map[string]map[string]float64),
		IdealIPC:   make(map[string]float64),
	}
	for _, wl := range benches {
		ideal := res["ideal/"+wl].IPC
		out.IdealIPC[wl] = ideal
		out.Relative[wl] = make(map[string]map[string]float64)
		for _, chains := range fig2ChainCounts {
			cl := chainLabel(chains)
			out.Relative[wl][cl] = make(map[string]float64)
			for _, v := range fig2Variants {
				key := fmt.Sprintf("%s/%s/%s", cl, v.name, wl)
				out.Relative[wl][cl][v.name] = res[key].IPC / ideal
			}
		}
	}
	return out, nil
}

// Table renders the figure as the text table cmd/iqbench prints.
func (f *Fig2Result) Table() *stats.Table {
	t := stats.NewTable("config", append(f.Benchmarks, "average")...)
	for _, chains := range fig2ChainCounts {
		cl := chainLabel(chains)
		for _, v := range fig2Variants {
			cells := make(map[string]string, len(f.Benchmarks)+1)
			var vals []float64
			for _, wl := range f.Benchmarks {
				rel := f.Relative[wl][cl][v.name]
				cells[wl] = fmt.Sprintf("%.1f%%", 100*rel)
				vals = append(vals, rel)
			}
			cells["average"] = fmt.Sprintf("%.1f%%", 100*stats.ArithMean(vals))
			t.AddRow(cl+"/"+v.name, cells)
		}
	}
	return t
}

// Table2Result holds Table 2: average and peak chain usage for the
// 512-entry segmented IQ with unlimited chains.
type Table2Result struct {
	Benchmarks []string
	Average    map[string]map[string]float64 // [variant][bench]
	Peak       map[string]map[string]float64
}

// table2Jobs enumerates Table 2's grid.
func table2Jobs(o Options) []job {
	var jobs []job
	for _, wl := range o.benchmarks() {
		for _, v := range fig2Variants {
			jobs = append(jobs, job{key: v.name + "/" + wl, cfg: sim.SegmentedConfig(512, 0, v.hmp, v.lrp), wl: wl})
		}
	}
	return jobs
}

// Table2From assembles Table 2 from already-computed results.
func Table2From(o Options, res map[string]*sim.Result) (*Table2Result, error) {
	benches := o.benchmarks()
	if err := requireResults(res, table2Jobs(o)); err != nil {
		return nil, err
	}
	out := &Table2Result{
		Benchmarks: benches,
		Average:    make(map[string]map[string]float64),
		Peak:       make(map[string]map[string]float64),
	}
	for _, v := range fig2Variants {
		out.Average[v.name] = make(map[string]float64)
		out.Peak[v.name] = make(map[string]float64)
		for _, wl := range benches {
			r := res[v.name+"/"+wl]
			out.Average[v.name][wl] = r.Stats.MustGet("chains_avg")
			out.Peak[v.name][wl] = r.Stats.MustGet("chains_peak")
		}
	}
	return out, nil
}

// Table renders Table 2 in the paper's layout (benchmark rows; average
// and peak columns per configuration).
func (t2 *Table2Result) Table() *stats.Table {
	var cols []string
	for _, v := range fig2Variants {
		cols = append(cols, v.name+"-avg", v.name+"-peak")
	}
	t := stats.NewTable("benchmark", cols...)
	for _, wl := range t2.Benchmarks {
		cells := make(map[string]string)
		for _, v := range fig2Variants {
			cells[v.name+"-avg"] = fmt.Sprintf("%.1f", t2.Average[v.name][wl])
			cells[v.name+"-peak"] = fmt.Sprintf("%.0f", t2.Peak[v.name][wl])
		}
		t.AddRow(wl, cells)
	}
	avgCells := make(map[string]string)
	for _, v := range fig2Variants {
		var avgs, peaks []float64
		for _, wl := range t2.Benchmarks {
			avgs = append(avgs, t2.Average[v.name][wl])
			peaks = append(peaks, t2.Peak[v.name][wl])
		}
		avgCells[v.name+"-avg"] = fmt.Sprintf("%.1f", stats.ArithMean(avgs))
		avgCells[v.name+"-peak"] = fmt.Sprintf("%.0f", stats.ArithMean(peaks))
	}
	t.AddRow("average", avgCells)
	return t
}

// Fig3Sizes are the IQ sizes of Figure 3.
var Fig3Sizes = []int{32, 64, 128, 256, 512}

// Fig3PreschedSlots are the prescheduling-array capacities of Figure 3
// (32-entry issue buffer + 8/24/56/120 lines of 12).
var Fig3PreschedSlots = []int{128, 320, 704, 1472}

// Fig3Result holds Figure 3: IPC for each benchmark across queue sizes
// for the ideal queue, the combined segmented queue with 128 and 64
// chains, and the prescheduling baseline.
type Fig3Result struct {
	Benchmarks []string
	// IPC[series][bench][i] follows Fig3Sizes (or Fig3PreschedSlots for
	// the "prescheduled" series).
	IPC map[string]map[string][]float64
}

// Fig3Series are the curve names, in plot order.
var Fig3Series = []string{"ideal", "comb-128chains", "comb-64chains", "prescheduled"}

// fig3Jobs enumerates Figure 3's grid.
func fig3Jobs(o Options) []job {
	var jobs []job
	for _, wl := range o.benchmarks() {
		for _, size := range Fig3Sizes {
			jobs = append(jobs,
				job{key: fmt.Sprintf("ideal/%d/%s", size, wl), cfg: sim.DefaultConfig(sim.QueueIdeal, size), wl: wl},
				job{key: fmt.Sprintf("comb-128chains/%d/%s", size, wl), cfg: sim.SegmentedConfig(size, 128, true, true), wl: wl},
				job{key: fmt.Sprintf("comb-64chains/%d/%s", size, wl), cfg: sim.SegmentedConfig(size, 64, true, true), wl: wl},
			)
		}
		for _, slots := range Fig3PreschedSlots {
			jobs = append(jobs, job{key: fmt.Sprintf("prescheduled/%d/%s", slots, wl), cfg: sim.PrescheduledConfig(slots), wl: wl})
		}
	}
	return jobs
}

// Fig3From assembles Figure 3 from already-computed results.
func Fig3From(o Options, res map[string]*sim.Result) (*Fig3Result, error) {
	benches := o.benchmarks()
	if err := requireResults(res, fig3Jobs(o)); err != nil {
		return nil, err
	}
	out := &Fig3Result{Benchmarks: benches, IPC: make(map[string]map[string][]float64)}
	for _, series := range Fig3Series {
		out.IPC[series] = make(map[string][]float64)
		sizes := Fig3Sizes
		if series == "prescheduled" {
			sizes = Fig3PreschedSlots
		}
		for _, wl := range benches {
			for _, size := range sizes {
				out.IPC[series][wl] = append(out.IPC[series][wl],
					res[fmt.Sprintf("%s/%d/%s", series, size, wl)].IPC)
			}
		}
	}
	return out, nil
}

// Tables renders one table per benchmark, rows = series, columns = sizes.
func (f *Fig3Result) Tables() map[string]*stats.Table {
	out := make(map[string]*stats.Table, len(f.Benchmarks))
	for _, wl := range f.Benchmarks {
		var cols []string
		for _, s := range Fig3Sizes {
			cols = append(cols, fmt.Sprintf("%d", s))
		}
		t := stats.NewTable(wl, cols...)
		for _, series := range Fig3Series {
			cells := make(map[string]string)
			if series == "prescheduled" {
				// The prescheduling points have their own sizes; align
				// them under the nearest ideal-size columns for display.
				for i, slots := range Fig3PreschedSlots {
					col := fmt.Sprintf("%d", Fig3Sizes[i+1])
					cells[col] = fmt.Sprintf("%.2f(%d)", f.IPC[series][wl][i], slots)
				}
			} else {
				for i := range Fig3Sizes {
					cells[cols[i]] = fmt.Sprintf("%.2f", f.IPC[series][wl][i])
				}
			}
			t.AddRow(series, cells)
		}
		out[wl] = t
	}
	return out
}
