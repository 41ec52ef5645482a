// Command perfbench is the repository's benchmark. One invocation runs
// one workload of the simulator as a closed-loop batch job in a single
// process for a fixed wall-clock budget, checks every simulated result,
// and prints as its last line one JSON object with the end-to-end
// metrics or, with -trace 1, the per-layer metrics. run.py builds and
// runs it; README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	iqsim "repro"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Units of every metric the benchmark can emit. BENCHMARK.json declares
// the same names and units; the self-test holds the two together.
var endToEndUnits = map[string]string{
	"setup_s":     "s",
	"sim_kips":    "kinst/s",
	"peak_rss_mb": "MB",
}

var perLayerUnits = map[string]string{
	"trace.gen_ns_per_inst":          "ns",
	"trace.next_calls":               "count",
	"sim.build_ms":                   "ms",
	"sim.warm_ns_per_inst":           "ns",
	"sim.checkpoint_ms":              "ms",
	"sim.fork_ms":                    "ms",
	"sim.step_ns_per_cycle":          "ns",
	"sim.chunk_ms_p50":               "ms",
	"sim.chunk_ms_p90":               "ms",
	"sim.chunk_samples":              "count",
	"sim.skip_frac":                  "ratio",
	"sim.prefix_shared_frac":         "ratio",
	"sim.prefix_total_cycles":        "count",
	"sim.prefix_fallbacks":           "count",
	"core.occupancy_avg":             "entries",
	"core.promotions_per_cycle":      "1/cycle",
	"core.wire_assertions_per_cycle": "1/cycle",
	"core.stall_nochain":             "count",
	"core.writeback_ns":              "ns",
	"pipeline.branch_mispredicts":    "count",
	"pipeline.lsq_mshr_rejects":      "count",
	"pipeline.dispatch_stall_iq":     "count",
	"mem.l1d_accesses":               "count",
	"mem.l1d_miss_rate":              "ratio",
	"experiments.plan_ms":            "ms",
	"experiments.sweep_s":            "s",
	"runtime.allocs_per_kinst":       "count",
	"runtime.alloc_bytes_per_kinst":  "bytes",
	"runtime.gc_cpu_frac":            "ratio",
	"runtime.gc_cycles":              "count",
	"trace_overhead_frac":            "ratio",
	"fail_frac":                      "ratio",
}

// replayMetrics are the per-cycle call times the replay reports for each
// design; core (the segmented queue) also reports writeback_ns above.
var replayMetrics = map[string][]string{
	"core":     {"begin_cycle_ns", "issue_ns", "dispatch_ns"},
	"iq":       {"begin_cycle_ns", "issue_ns", "dispatch_ns"},
	"presched": {"begin_cycle_ns", "issue_ns"},
	"fifoiq":   {"begin_cycle_ns", "issue_ns"},
	"distiq":   {"begin_cycle_ns", "issue_ns"},
}

func init() {
	for layer, names := range replayMetrics {
		for _, n := range names {
			perLayerUnits[layer+"."+n] = "ns"
		}
	}
}

const (
	// minSamples is the fewest detailed-phase samples a run reports over;
	// a run keeps sampling past it until its time budget is spent. A
	// traced run takes half as many untraced/traced pairs.
	minSamples = 5
	// setupsPerSample is how many times a sweep run repeats its
	// checkpoint warmup per RunShard sample, so setup_s is a median over
	// more samples than the sweep itself affords.
	setupsPerSample = 3
	// genInsts is the length of the standalone trace-generation drain.
	genInsts = 200_000
	// layerReps is how often the traced run repeats each one-off layer
	// measurement (trace drain, grid plan, replay).
	layerReps = 3
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// checker counts simulations and their failures: an error, or an output
// whose digest differs from the expected one.
type checker struct {
	want      string // the pinned digest, else the first output seen
	seen      string // the first output seen
	attempted int
	failed    int
	errs      []string
}

// check records n simulations whose output digests to got.
func (c *checker) check(what string, n int, got string, err error) {
	if err == nil && c.seen == "" {
		c.seen = got
	}
	if c.want == "" {
		c.want = c.seen
	}
	c.compare(what, n, got, c.want, err)
}

// compare records n simulations whose output must digest to want.
func (c *checker) compare(what string, n int, got, want string, err error) {
	c.attempted += n
	switch {
	case err != nil:
		c.failed += n
		c.errs = append(c.errs, fmt.Sprintf("%s: %v", what, err))
	case got != want:
		c.failed += n
		c.errs = append(c.errs, fmt.Sprintf("%s: output digest %s, want %s", what, got, want))
	}
}

// runner is one invocation: a workload at a seed, its samples and checks.
type runner struct {
	w       *workload
	seed    uint64
	budget  time.Duration
	start   time.Time
	tr      *tracer
	points  int // grid points of a sweep
	chk     checker
	samples map[string][]float64
	metrics map[string]float64
}

func (s *runner) add(name string, v float64) { s.samples[name] = append(s.samples[name], v) }

// more reports whether sample i should run: always below min, else only
// if another sample as long as the last one still fits in the budget.
func (s *runner) more(i, min int, last time.Duration) bool {
	return i < min || time.Since(s.start)+last < s.budget
}

func main() {
	name := flag.String("workload", "", "workload: seg_swim, ideal_gcc, fig2_sweep or smt_sweep")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measurement budget in seconds")
	traced := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	spansPath := flag.String("spans", "", "traced runs: write the spans as JSON to this file")
	flag.Parse()
	w := findWorkload(*name)
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %s), -seconds >= 1 and -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	res, rep, err := run(w, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *spansPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	for _, v := range []any{map[string]any{"report": rep}, res} {
		b, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		fmt.Println(string(b))
	}
	if !res.Correct {
		for _, e := range rep.Errors {
			fmt.Fprintln(os.Stderr, "perfbench:", e)
		}
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// report is printed on the line before the result: the host, the input
// size, every metric's samples and the output digest (what a pin holds).
type report struct {
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	Traced      bool               `json:"traced"`
	Host        host               `json:"host"`
	N           int64              `json:"n"`
	Warm        int64              `json:"warm"`
	Digest      string             `json:"digest"`
	Pinned      bool               `json:"pinned"`
	Samples     map[string]summary `json:"samples"`
	SelfSeconds map[string]float64 `json:"self_s,omitempty"`
	Errors      []string           `json:"errors,omitempty"`
}

// run measures w at seed for the budget and assembles the result.
func run(w *workload, seed uint64, budget time.Duration, traced bool, spansPath string) (*result, *report, error) {
	s := &runner{w: w, seed: seed, budget: budget, start: time.Now(),
		samples: make(map[string][]float64), metrics: make(map[string]float64)}
	pin, pinned := w.pins[seed]
	s.chk.want = pin
	units := endToEndUnits
	var err error
	if traced {
		s.tr = newTracer()
		units = perLayerUnits
		err = s.measureTraced()
	} else {
		err = s.measure()
	}
	if err != nil {
		return nil, nil, err
	}
	if traced {
		s.metrics["fail_frac"] = float64(s.chk.failed) / float64(max(s.chk.attempted, 1))
	} else {
		s.metrics["peak_rss_mb"] = peakRSSMB()
	}
	res := &result{Correct: s.chk.failed == 0 && s.chk.attempted > 0, Attempted: s.chk.attempted,
		Failed: s.chk.failed, Metrics: make(map[string]metric)}
	for name, unit := range units {
		v, ok := s.metrics[name]
		if !ok {
			return nil, nil, fmt.Errorf("metric %s was not measured", name)
		}
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}
	rep := &report{Workload: w.name, Seed: seed, Traced: traced, Host: hostInfo(), N: w.run.n,
		Warm: w.run.warm, Digest: s.chk.seen, Pinned: pinned, Samples: make(map[string]summary), Errors: s.chk.errs}
	for name, xs := range s.samples {
		rep.Samples[name] = summarize(xs)
	}
	if traced {
		rep.SelfSeconds = s.tr.selfTimes()
		if spansPath != "" {
			if err := s.tr.write(spansPath); err != nil {
				return nil, nil, err
			}
		}
	}
	return res, rep, nil
}

// measure is the untraced run: set-up and detailed-phase samples until
// the budget is spent. setup_s is their median; sim_kips is chunkKips for
// a single run and the median repeat for a sweep, which cannot be timed
// in slices from outside.
func (s *runner) measure() error {
	w := s.w
	if !w.sweep() {
		s.reference()
		var last time.Duration
		var reps [][]time.Duration
		for i := 0; s.more(i, minSamples, last); i++ {
			settle()
			t0 := time.Now()
			r, err := runSpec(w.run, s.seed, nil)
			s.checkRun("Step-driven run", r, err)
			if err != nil {
				break
			}
			s.add("setup_s", r.setup.Seconds())
			s.add("sim_kips", kips(r.res.Instructions, r.detailed))
			for _, c := range r.chunks {
				s.add("sim.chunk_ms", c.Seconds()*1e3)
			}
			reps = append(reps, r.chunks)
			last = time.Since(t0)
		}
		s.metrics["sim_kips"] = chunkKips(reps, w.run.n)
	} else {
		sets, points, err := w.contextSets(s.seed, nil)
		if err != nil {
			return err
		}
		s.points = points
		var first *sweepRun
		var last time.Duration
		for i := 0; s.more(i, minSamples, last); i++ {
			settle()
			t0 := time.Now()
			for k := 0; k < setupsPerSample; k++ {
				cks, d, err := w.warmCheckpoints(sets, s.seed, nil)
				if err != nil {
					return err
				}
				for _, ck := range cks {
					ck.Release()
				}
				s.add("setup_s", d.Seconds())
			}
			sr, err := s.sweepSample(nil, nil)
			if err != nil {
				break
			}
			if first == nil {
				first = sr
			}
			s.add("sim_kips", kips(sr.committed, sr.d))
			last = time.Since(t0)
		}
		if first != nil {
			s.probe(first, nil)
		}
		s.metrics["sim_kips"] = median(s.samples["sim_kips"])
	}
	s.metrics["setup_s"] = median(s.samples["setup_s"])
	return nil
}

// settle collects garbage before a repeat, so that every repeat starts
// from the same heap and the runtime's allocation-paced GC cycles fall on
// the same stretch of simulated work each time.
func settle() { runtime.GC() }

// chunkKips is the detailed phase's throughput from its fastest time per
// chunk over the repeats. Each chunk is the same simulated work in every
// repeat, and contention from other tenants of the host only ever adds
// time, so the fastest repeat of each chunk is the steadiest estimate of
// the simulator's own cost.
func chunkKips(reps [][]time.Duration, n int64) float64 {
	if len(reps) == 0 {
		return 0
	}
	var sum float64
	for k := range reps[0] {
		best := reps[0][k]
		for _, c := range reps[1:] {
			best = min(best, c[k])
		}
		sum += best.Seconds()
	}
	return float64(n) / sum / 1e3
}

// reference runs iqsim.Run, the result every Step-driven run of a
// single-run workload must reproduce exactly.
func (s *runner) reference() {
	sp := s.w.run
	ref, err := iqsim.Run(sp.cfg, sp.contexts[0], s.seed, sp.n, sp.warm)
	got := ""
	if err == nil {
		got = digest(recorded(ref))
	}
	s.chk.check("iqsim.Run", 1, got, err)
}

func (s *runner) checkRun(what string, r *stepRun, err error) {
	got := ""
	if err == nil {
		got = digest(recorded(r.res))
	}
	s.chk.check(what, 1, got, err)
}

// sweepSample runs the whole grid once and checks its output file.
func (s *runner) sweepSample(ps *sim.PrefixStats, tr *tracer) (*sweepRun, error) {
	sr, err := s.w.runSweep(s.seed, ps, tr)
	got := ""
	if err == nil {
		got = sr.digest
	}
	s.chk.check("experiments.RunShard", s.points, got, err)
	return sr, err
}

// probe re-runs one grid point of a sweep as a Step-driven machine and
// requires the sweep's forked, prefix-shared result for it to match.
func (s *runner) probe(first *sweepRun, tr *tracer) *stepRun {
	r, err := runSpec(s.w.run, s.seed, tr)
	got := ""
	if err == nil {
		got = digest(recorded(r.res))
	}
	want := "missing"
	if rec := first.sf.Results[s.w.probeKey]; rec != nil {
		want = digest(rec)
	}
	s.chk.compare("probe "+s.w.probeKey, 1, got, want, err)
	if err != nil {
		return nil
	}
	return r
}

// measureTraced is the traced run: one-off measurements of each layer,
// then untraced and traced detailed phases in alternation, so the
// tracing overhead is measured on the same host in the same process.
func (s *runner) measureTraced() error {
	w, tr := s.w, s.tr
	ctx0 := w.run.contexts[0]

	// Trace generation alone.
	for k := 0; k < layerReps; k++ {
		tr.begin("trace.New")
		st, err := trace.New(ctx0, s.seed)
		tr.end()
		if err != nil {
			return err
		}
		tr.begin("trace.Stream.Next")
		for i := 0; i < genInsts; i++ {
			st.Next()
		}
		tr.end()
	}

	// Grid plan, checkpoint warmup and one fork per grid point.
	var sets []string
	for k := 0; k < layerReps; k++ {
		var err error
		if sets, s.points, err = w.contextSets(s.seed, tr); err != nil {
			return err
		}
	}
	cks, _, err := w.warmCheckpoints(sets, s.seed, tr)
	if err != nil {
		return err
	}
	cfgs := w.gridCfgs
	if !w.sweep() {
		cfgs = []sim.Config{w.run.cfg}
	}
	forks := 0
	for _, ck := range cks {
		for _, cfg := range cfgs {
			tr.begin("sim.Checkpoint.Fork")
			_, err := ck.Fork(cfg)
			tr.end()
			if err != nil {
				return err
			}
			forks++
		}
		ck.Release()
	}
	if forks != s.points {
		return fmt.Errorf("%s: the grid has %d points but the benchmark forks %d", w.experiment, s.points, forks)
	}

	// Queue replays.
	for _, d := range replayDesigns {
		for k := 0; k < layerReps; k++ {
			st, err := trace.New(ctx0, s.seed)
			if err != nil {
				return err
			}
			insts := trace.Take(st, replayInsts)
			tr.begin("replay." + d.layer)
			rt, err := replay(d.cfg, insts, st)
			tr.end()
			if err != nil {
				return err
			}
			s.add(d.layer+".begin_cycle_ns", rt.perCycleNS(rt.begin))
			s.add(d.layer+".issue_ns", rt.perCycleNS(rt.issue))
			s.add(d.layer+".dispatch_ns", rt.perCycleNS(rt.dispatch))
			s.add(d.layer+".writeback_ns", rt.perCycleNS(rt.writeback))
		}
	}

	// Detailed phases, untraced then traced.
	if !w.sweep() {
		s.reference()
	}
	var probes []*stepRun
	var untraced, traced [][]time.Duration // single runs' chunk times
	var first *sweepRun
	var prefix *sim.PrefixStats
	var last time.Duration
	for i := 0; s.more(i, (minSamples+1)/2, last); i++ {
		settle()
		t0 := time.Now()
		if !w.sweep() {
			u, err := runSpec(w.run, s.seed, nil)
			s.checkRun("Step-driven run", u, err)
			if err != nil {
				break
			}
			settle()
			t, err := runSpec(w.run, s.seed, tr)
			s.checkRun("traced Step-driven run", t, err)
			if err != nil {
				break
			}
			untraced, traced = append(untraced, u.chunks), append(traced, t.chunks)
			probes = append(probes, t)
		} else {
			u, err := s.sweepSample(nil, nil)
			if err != nil {
				break
			}
			ps := new(sim.PrefixStats)
			settle()
			t, err := s.sweepSample(ps, tr)
			if err != nil {
				break
			}
			if first == nil {
				first, prefix = u, ps
			}
			s.add("untraced_kips", kips(u.committed, u.d))
			s.add("traced_kips", kips(t.committed, t.d))
			if p := s.probe(first, tr); p != nil {
				probes = append(probes, p)
			}
		}
		last = time.Since(t0)
	}
	if len(probes) == 0 {
		return fmt.Errorf("no traced run completed: %s", strings.Join(s.chk.errs, "; "))
	}
	kinst := float64(w.run.n) / 1e3
	if first != nil {
		kinst = float64(first.committed) / 1e3
	}
	s.layerMetrics(probes, prefix, kinst)
	// Tracing overhead, with the estimator sim_kips uses.
	if w.sweep() {
		s.metrics["trace_overhead_frac"] = 1 - median(s.samples["traced_kips"])/median(s.samples["untraced_kips"])
	} else {
		s.metrics["trace_overhead_frac"] = 1 - chunkKips(traced, w.run.n)/chunkKips(untraced, w.run.n)
	}
	return nil
}

// layerMetrics derives the per-layer metrics from the spans, the traced
// Step-driven runs and the sweep's prefix-sharing counters. kinst is the
// detailed phase's committed instructions in thousands.
func (s *runner) layerMetrics(probes []*stepRun, prefix *sim.PrefixStats, kinst float64) {
	w, tr, m := s.w, s.tr, s.metrics
	sp := w.run

	m["trace.gen_ns_per_inst"] = median(tr.durations("trace.Stream.Next")) * 1e9 / genInsts
	m["sim.build_ms"] = median(tr.durations("sim.NewEngine")) * 1e3
	m["sim.warm_ns_per_inst"] = median(tr.durations("sim.Engine.Warm")) * 1e9 / float64(sp.warm*int64(len(sp.contexts)))
	m["sim.checkpoint_ms"] = median(tr.durations("sim.NewCheckpoint")) * 1e3
	m["sim.fork_ms"] = median(tr.durations("sim.Checkpoint.Fork")) * 1e3
	chunks := tr.durations("sim.Engine.Step")
	m["sim.chunk_ms_p50"] = percentile(chunks, 50) * 1e3
	m["sim.chunk_ms_p90"] = percentile(chunks, 90) * 1e3
	m["sim.chunk_samples"] = float64(len(chunks))
	for _, c := range chunks {
		s.add("sim.chunk_ms", c*1e3)
	}
	for _, p := range probes {
		s.add("trace.next_calls", float64(p.nextCalls))
		s.add("sim.step_ns_per_cycle", float64(p.detailed.Nanoseconds())/float64(p.res.Cycles))
	}
	m["trace.next_calls"] = median(s.samples["trace.next_calls"])
	m["sim.step_ns_per_cycle"] = median(s.samples["sim.step_ns_per_cycle"])

	// Simulated counts of the Step-driven run: identical on every repeat.
	p := probes[0]
	st := p.res.Stats.Values()
	cycles := float64(p.res.Cycles)
	m["sim.skip_frac"] = float64(p.skipped) / cycles
	m["core.occupancy_avg"] = st["iq_occupancy_avg"]
	m["core.promotions_per_cycle"] = st["iq_promotions"] / cycles
	m["core.wire_assertions_per_cycle"] = st["chain_wire_assertions"] / cycles
	m["core.stall_nochain"] = st["iq_stall_nochain"]
	m["pipeline.branch_mispredicts"] = perContext(st, "branch_mispredicts")
	m["pipeline.lsq_mshr_rejects"] = perContext(st, "lsq_mshr_rejects")
	m["pipeline.dispatch_stall_iq"] = st["dispatch_stall_iq"]
	m["mem.l1d_accesses"] = st["l1d_accesses"]
	m["mem.l1d_miss_rate"] = st["l1d_miss_rate"]

	for layer, names := range replayMetrics {
		for _, n := range names {
			m[layer+"."+n] = median(s.samples[layer+"."+n])
		}
	}
	m["core.writeback_ns"] = median(s.samples["core.writeback_ns"])

	// Sweep layers; a single-run workload has no grid and reports zero.
	m["experiments.plan_ms"] = 0
	m["experiments.sweep_s"] = 0
	m["sim.prefix_shared_frac"] = 0
	m["sim.prefix_total_cycles"] = 0
	m["sim.prefix_fallbacks"] = 0
	detailedSpan := "sim.run"
	if w.sweep() {
		m["experiments.plan_ms"] = median(tr.durations("experiments.GridPlan")) * 1e3
		m["experiments.sweep_s"] = median(tr.durations("experiments.RunShard"))
		if prefix != nil {
			if total := prefix.TotalCycles.Load(); total > 0 {
				m["sim.prefix_shared_frac"] = float64(prefix.SharedCycles.Load()) / float64(total)
				m["sim.prefix_total_cycles"] = float64(total)
			}
			m["sim.prefix_fallbacks"] = float64(prefix.Fallbacks.Load())
		}
		detailedSpan = "experiments.RunShard"
	}

	// Go runtime counters over the detailed phase.
	for _, d := range tr.named(detailedSpan) {
		s.add("runtime.allocs_per_kinst", d.RT.Allocs/kinst)
		s.add("runtime.alloc_bytes_per_kinst", d.RT.Bytes/kinst)
		s.add("runtime.gc_cycles", d.RT.GCCycles)
		if d.RT.TotalCPU > 0 {
			s.add("runtime.gc_cpu_frac", d.RT.GCCPU/d.RT.TotalCPU)
		}
	}
	for _, n := range []string{"runtime.allocs_per_kinst", "runtime.alloc_bytes_per_kinst", "runtime.gc_cycles", "runtime.gc_cpu_frac"} {
		m[n] = median(s.samples[n])
	}
}

// perContext reads a per-context statistic: unprefixed on a one-context
// machine, summed over thread<i>_ on a multi-context one.
func perContext(st map[string]float64, name string) float64 {
	if v, ok := st[name]; ok {
		return v
	}
	var sum float64
	for i := 0; ; i++ {
		v, ok := st[fmt.Sprintf("thread%d_%s", i, name)]
		if !ok {
			return sum
		}
		sum += v
	}
}
