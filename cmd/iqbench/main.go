// Command iqbench regenerates the paper's evaluation: Figure 2, Table 2,
// Figure 3, the in-text measurements (§4.3, §4.4, §4.5, §6.1), the §2
// related-work comparison, the §7 power proxy, the design-choice
// ablations and the SMT matrix. Output is the textual equivalent of each
// table or figure; EXPERIMENTS.md records a captured run against the
// paper's numbers.
//
// Every experiment is one entry of the experiments package's registry,
// and every mode reads that table: a direct run is RunShard(0,1)
// followed by the same render -merge prints, so -shard, -merge, -coord
// and -worker work alike for all of them. Without -out, -shard and
// -merge write the JSON to stdout and their summaries and tables to
// stderr.
//
// Examples:
//
//	iqbench                         # every experiment but smt, default sample sizes
//	iqbench -experiment fig2
//	iqbench -experiment fig3 -n 100000 -warm 500000
//	iqbench -experiment table2 -benchmarks swim,equake
//	iqbench -perf-json BENCH_3.json # simulator performance baseline
//	iqbench -perf-compare auto      # fresh capture vs newest checked-in baseline
//	iqbench -smt-sweep              # SMT matrix: context sets × designs × 2/4 contexts
//	iqbench -smt-sweep -benchmarks swim+twolf,mgrid+gcc
//
// Sweeps can reuse warmups across processes and spread a grid over
// machines:
//
//	iqbench -ckpt-dir .ckpt -experiment table2      # warm once ever, fork after
//	iqbench -experiment table2 -shard 0/2 -out s0.json
//	iqbench -experiment table2 -shard 1/2 -out s1.json
//	iqbench -merge s0.json,s1.json -out merged.json # ≡ the single-process run
//
// Shards that see one directory share warmups by passing it as
// -ckpt-dir. The cache is strictly an accelerator: if the directory is
// unreadable or unwritable, shards warm locally and finish with
// identical results.
//
// A coordinator replaces the static -shard split with leased jobs:
// one host enumerates the grid, workers pull cost-ordered batches and
// upload results, crashed workers' leases expire back into the queue,
// and completed fragments are spooled so a coordinator restart loses
// nothing. The merged output is byte-identical to the single-process
// run:
//
//	iqbench -coord :8377 -experiment table2 -out merged.json   # on one host
//	iqbench -worker -coord-url http://host:8377                # on each worker
//
// Workers keep their warmups in memory; -ckpt-dir is rejected with
// -coord, -worker and -merge, none of which uses the checkpoint cache.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/coord"
	"repro/internal/experiments"
	"repro/internal/perf"
	"repro/internal/sim"
)

func main() {
	var (
		exp            = flag.String("experiment", "all", strings.Join(experiments.Experiments, ", ")+", or all")
		smtSweep       = flag.Bool("smt-sweep", false, "run the SMT scenario matrix (shorthand for -experiment smt): co-scheduled context sets × queue designs × 2/4 hardware contexts; -benchmarks takes comma-separated \"+\"-joined sets, e.g. swim+twolf,mgrid+gcc")
		n              = flag.Int64("n", 0, "measured instructions per run (0 = default)")
		warm           = flag.Int64("warm", 0, "warm-up instructions per run (0 = default)")
		seed           = flag.Uint64("seed", 1, "workload seed")
		benches        = flag.String("benchmarks", "", "comma-separated benchmark subset (default all)")
		par            = flag.Int("parallel", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		perfJSON       = flag.String("perf-json", "", "measure simulator performance (pinned workloads) and write a BENCH json baseline to this path, instead of running experiments")
		perfCompare    = flag.String("perf-compare", "", "measure simulator performance and compare against the BENCH json baseline at this path (warn-only), instead of running experiments; \"auto\" picks the highest-numbered BENCH_<n>.json in the current directory")
		perfThresh     = flag.Float64("perf-threshold", 0.5, "tolerated fractional slowdown for -perf-compare (0.5 = 50%)")
		ckptDir        = flag.String("ckpt-dir", "", "directory backing the warm-checkpoint cache: warmups found there are loaded instead of re-simulated, new ones are saved for later runs")
		noSkip         = flag.Bool("no-skip", false, "step every simulated cycle instead of skipping provably idle spans; results are bit-identical either way (this flag exists for cross-checking and for before/after perf comparisons)")
		noPrefix       = flag.Bool("no-prefix-share", false, "fork every sweep point from its warm checkpoint instead of sharing the detailed prefix of each sweep family's most permissive member; results are bit-identical either way (this flag exists for cross-checking and for before/after perf comparisons)")
		prescreen      = flag.Bool("prescreen", false, "run a pre-screened mega-grid sweep: score every grid point with the analytic IPC model, simulate only the predicted IPC-per-entry Pareto frontier plus a seeded audit sample, and report the estimator's audit error; -out writes the simulated points as a shard JSON")
		prescreenGrid  = flag.String("prescreen-grid", "mega", "mega-grid preset for -prescreen: mega (~13k points per workload) or ci (~340)")
		prescreenAudit = flag.Int("prescreen-audit", 24, "seeded-random grid points simulated per workload regardless of the frontier prediction, to measure estimator error")
		prescreenSlack = flag.Float64("prescreen-slack", 0.05, "frontier safety margin: points predicted within this fraction of their entries-group's best are simulated too")
		prescreenCheck = flag.Float64("prescreen-check", 0, "exit non-zero when the pooled audit rank correlation falls below this threshold (0 = report only); the screening contract is 0.8")
		coordServe     = flag.String("coord", "", "serve a sweep coordinator at this address (e.g. :8377): enumerate the -experiment grid, lease jobs to -worker processes, accumulate their fragments, and write the merged JSON to -out when the grid completes")
		coordSpool     = flag.String("coord-spool", ".coord-spool", "directory where the coordinator durably spools completed fragments; a restarted coordinator over the same spool resumes without re-simulating finished jobs")
		coordLease     = flag.Duration("coord-lease", coord.DefaultLeaseTTL, "lease TTL for coordinator jobs; a worker that stops renewing for this long has its jobs re-queued")
		workerMode     = flag.Bool("worker", false, "run as a sweep worker: pull leased jobs from the -coord-url coordinator, simulate them, upload results, exit when the grid is done")
		coordURL       = flag.String("coord-url", "", "base URL of the coordinator (e.g. http://host:8377) for -worker")
		coordBatch     = flag.Int("coord-batch", 1, "jobs leased per request in -worker mode (the coordinator caps it); 1 gives the finest-grained load balancing")
		shard          = flag.String("shard", "", "run only shard i/n of the experiment grid (format i/n) and write a shard JSON; requires a single -experiment")
		out            = flag.String("out", "", "output path for -shard / -merge JSON (default stdout)")
		mergeList      = flag.String("merge", "", "comma-separated shard JSON files: merge them, verify completeness, write the combined JSON and render the experiment")
	)
	flag.Parse()

	if err := checkCkptDir(*ckptDir, *coordServe != "", *workerMode, *mergeList != ""); err != nil {
		fmt.Fprintf(os.Stderr, "iqbench: %v\n", err)
		os.Exit(2)
	}

	if *perfJSON != "" || *perfCompare != "" {
		if *perfCompare == "auto" {
			latest, err := perf.LatestBaseline(".")
			if err != nil {
				fmt.Fprintf(os.Stderr, "iqbench: %v\n", err)
				os.Exit(1)
			}
			*perfCompare = latest
		}
		start := time.Now()
		b := perf.Measure(*noSkip)
		for _, w := range b.Workloads {
			fmt.Printf("%-28s %12.0f ns/op %8d B/op %6d allocs/op", w.Name, w.NsPerOp, w.BytesPerOp, w.AllocsPerOp)
			if w.SimMIPS > 0 {
				fmt.Printf(" %8.3f simMIPS %8.0f ns/simcycle", w.SimMIPS, w.NsPerSimCycle)
			}
			if w.SkipWindows > 0 {
				fmt.Printf(" [skip: %d cycles / %d windows]", w.SkippedCycles, w.SkipWindows)
			}
			if w.PrefixTotalCycles > 0 {
				fmt.Printf(" [prefix: %d/%d cycles shared]", w.PrefixSharedCycles, w.PrefixTotalCycles)
			}
			if w.PrescreenScreened > 0 {
				fmt.Printf(" [prescreen: %d/%d simulated, audit rho %.3f]",
					w.PrescreenSimulated, w.PrescreenScreened, w.PrescreenAuditRho)
			}
			fmt.Println()
		}
		if *perfJSON != "" {
			if err := b.WriteJSON(*perfJSON); err != nil {
				fmt.Fprintf(os.Stderr, "iqbench: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("[perf baseline written to %s in %.1fs]\n", *perfJSON, time.Since(start).Seconds())
		}
		if *perfCompare != "" {
			base, err := perf.ReadJSON(*perfCompare)
			if err != nil {
				fmt.Fprintf(os.Stderr, "iqbench: %v\n", err)
				os.Exit(1)
			}
			warnings := perf.Compare(base, b, *perfThresh)
			if len(warnings) == 0 {
				fmt.Printf("[no perf regressions vs %s (threshold %.0f%%), %.1fs]\n",
					*perfCompare, 100**perfThresh, time.Since(start).Seconds())
			}
			for _, w := range warnings {
				fmt.Printf("WARNING: %s\n", w)
			}
		}
		return
	}

	if *smtSweep {
		if *exp != "all" && *exp != "smt" {
			fmt.Fprintf(os.Stderr, "iqbench: -smt-sweep conflicts with -experiment %s\n", *exp)
			os.Exit(2)
		}
		*exp = "smt"
	}

	o := experiments.DefaultOptions()
	if *n > 0 {
		o.Instructions = *n
	}
	if *warm > 0 {
		o.Warmup = *warm
	}
	o.Seed = *seed
	o.Parallel = *par
	o.NoSkip = *noSkip
	o.NoPrefixShare = *noPrefix
	if !*noPrefix {
		o.PrefixStats = &sim.PrefixStats{}
	}
	if *benches != "" {
		o.Benchmarks = strings.Split(*benches, ",")
	}
	if *ckptDir != "" {
		o.CheckpointDir = *ckptDir
		o.CkptStats = &experiments.CkptStats{}
	}

	if *workerMode {
		if *coordURL == "" {
			fmt.Fprintln(os.Stderr, "iqbench: -worker requires -coord-url (the coordinator to pull jobs from)")
			os.Exit(2)
		}
		w := &coord.Worker{
			URL:       *coordURL,
			BatchSize: *coordBatch,
			Parallel:  *par,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			},
		}
		if err := w.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "iqbench: worker: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *coordServe != "" {
		if err := serveCoordinator(*coordServe, *exp, o, *coordSpool, *coordLease, *out); err != nil {
			fmt.Fprintf(os.Stderr, "iqbench: coord: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *mergeList != "" {
		if err := mergeShardFiles(strings.Split(*mergeList, ","), *out); err != nil {
			fmt.Fprintf(os.Stderr, "iqbench: merge: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *prescreen {
		start := time.Now()
		po := experiments.PrescreenOptions{Grid: *prescreenGrid, Audit: *prescreenAudit, Slack: *prescreenSlack}
		r, sf, err := experiments.Prescreen(o, po)
		if err != nil {
			fmt.Fprintf(os.Stderr, "iqbench: prescreen: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("Pre-screened sweep (%s grid): simulate the predicted frontier, audit the estimator\n", r.Grid)
		fmt.Print(r.Table().String())
		if *out != "" {
			if err := writeShardJSON(sf, *out); err != nil {
				fmt.Fprintf(os.Stderr, "iqbench: prescreen: %v\n", err)
				os.Exit(1)
			}
		}
		fmt.Printf("[%s]\n", r.Summary())
		fmt.Printf("[prescreen completed in %.1fs]\n", time.Since(start).Seconds())
		printCkptStats(os.Stdout, o)
		if *prescreenCheck > 0 && r.Spearman < *prescreenCheck {
			fmt.Fprintf(os.Stderr, "iqbench: prescreen audit rank correlation %.3f below required %.3f\n",
				r.Spearman, *prescreenCheck)
			os.Exit(1)
		}
		return
	}
	if *shard != "" {
		si, sn, err := parseShard(*shard)
		if err != nil {
			fmt.Fprintf(os.Stderr, "iqbench: %v\n", err)
			os.Exit(2)
		}
		start := time.Now()
		sf, err := experiments.RunShard(o, *exp, si, sn)
		if err != nil {
			fmt.Fprintf(os.Stderr, "iqbench: shard: %v\n", err)
			os.Exit(1)
		}
		if err := writeShardJSON(sf, *out); err != nil {
			fmt.Fprintf(os.Stderr, "iqbench: shard: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "[shard %d/%d of %s: %d/%d grid points in %.1fs]\n",
			si, sn, *exp, len(sf.Results), sf.TotalJobs, time.Since(start).Seconds())
		printCkptStats(summaryTo(*out), o)
		return
	}

	names, err := experiments.Select(*exp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "iqbench: %v\n", err)
		os.Exit(2)
	}
	for _, name := range names {
		start := time.Now()
		sf, err := experiments.RunShard(o, name, 0, 1)
		if err == nil {
			err = render(os.Stdout, sf)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "iqbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("[%s completed in %.1fs]\n\n", name, time.Since(start).Seconds())
	}
	printCkptStats(os.Stdout, o)
}

// parseShard parses a -shard argument "i/n": shard i of n, with
// 0 <= i < n. The whole token must parse; trailing characters are an
// error rather than silently ignored.
func parseShard(s string) (i, n int, err error) {
	a, b, ok := strings.Cut(s, "/")
	i, errI := strconv.Atoi(a)
	n, errN := strconv.Atoi(b)
	if !ok || errI != nil || errN != nil || i < 0 || n < 1 || i >= n {
		return 0, 0, fmt.Errorf("-shard wants i/n with 0 <= i < n (e.g. 0/4), got %q", s)
	}
	return i, n, nil
}

// checkCkptDir rejects -ckpt-dir in the modes that never use the
// checkpoint cache: the coordinator only hands out jobs, workers keep
// their warmups in memory, and a merge only reads shard files. Silently
// ignoring the flag there would let a user believe warmups are cached.
func checkCkptDir(ckptDir string, coordMode, workerMode, mergeMode bool) error {
	if ckptDir == "" || !(coordMode || workerMode || mergeMode) {
		return nil
	}
	return errors.New("-ckpt-dir has no effect with -coord, -worker or -merge: none of them uses the checkpoint cache")
}

// serveCoordinator runs the -coord mode: enumerate the experiment's
// grid, serve leases until every job has a result, then write the
// merged file (byte-identical to a single-process -shard 0/1 run) and
// exit. Completed fragments are spooled under spoolDir before they are
// acknowledged, so restarting the coordinator over the same spool
// resumes without losing or re-simulating finished work.
func serveCoordinator(addr, experiment string, o experiments.Options, spoolDir string, leaseTTL time.Duration, outPath string) error {
	if experiment == "" || experiment == "all" {
		return fmt.Errorf("-coord needs a single -experiment (the grid to distribute)")
	}
	costs, err := perf.LoadCostModel(".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "[coord: no perf baseline (%v); ordering jobs by instruction count]\n", err)
		costs = nil
	}
	s, err := coord.NewServer(coord.Config{
		Experiment: experiment,
		Options:    o,
		SpoolDir:   spoolDir,
		LeaseTTL:   leaseTTL,
		Costs:      costs,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	srv := &http.Server{Addr: addr, Handler: s.Handler()}
	fail := make(chan error, 1)
	go func() { fail <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "[coord: %s grid (%d jobs) on %s, spool %s, lease %s]\n",
		experiment, s.Merged().TotalJobs, addr, spoolDir, leaseTTL)
	select {
	case err := <-fail:
		return err
	case <-s.Done():
	}
	if err := writeShardJSON(s.Merged(), outPath); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "[coord: grid complete, merged %d results to %s]\n",
		len(s.Merged().Results), outOrStdout(outPath))
	// Linger so workers still polling for more work observe Done and
	// exit cleanly instead of erroring against a vanished server.
	time.Sleep(5 * time.Second)
	srv.Close()
	return nil
}

func outOrStdout(path string) string {
	if path == "" {
		return "stdout"
	}
	return path
}

// printCkptStats reports checkpoint-cache effectiveness when -ckpt-dir
// is in use, and prefix-sharing effectiveness unless -no-prefix-share
// disabled it.
func printCkptStats(w io.Writer, o experiments.Options) {
	if o.CkptStats != nil {
		fmt.Fprintf(w, "[ckpt-cache: %s]\n", o.CkptStats)
	}
	if o.PrefixStats != nil {
		fmt.Fprintf(w, "[prefix: %s]\n", o.PrefixStats)
	}
}

// summaryTo returns where -shard and -merge print their summaries and
// tables: stdout, unless the JSON itself goes there (no -out), in which
// case stderr, so stdout stays one parseable JSON document.
func summaryTo(out string) io.Writer {
	if out == "" {
		return os.Stderr
	}
	return os.Stdout
}

// render prints a complete result set as its experiment's tables.
func render(w io.Writer, sf *experiments.ShardFile) error {
	text, err := experiments.Render(sf)
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, text)
	return err
}

// writeShardJSON writes a shard (or merged) file as indented JSON to
// path, or to stdout when path is empty. The encoding is deterministic
// (Go sorts map keys), so identical result sets produce identical bytes.
func writeShardJSON(sf *experiments.ShardFile, path string) error {
	b, err := sf.MarshalPretty()
	if err != nil {
		return err
	}
	if path == "" {
		_, err = os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// mergeShardFiles reads shard JSONs, merges them into the
// single-process-equivalent file, writes it, and renders the
// experiment's tables from the merged results.
func mergeShardFiles(paths []string, out string) error {
	files := make([]*experiments.ShardFile, 0, len(paths))
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		sf := new(experiments.ShardFile)
		if err := json.Unmarshal(b, sf); err != nil {
			return fmt.Errorf("%s: %v", p, err)
		}
		files = append(files, sf)
	}
	merged, err := experiments.MergeShards(files)
	if err != nil {
		return err
	}
	if err := writeShardJSON(merged, out); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "[merged %d shards: %d grid points of %s]\n",
		len(files), len(merged.Results), merged.Experiment)
	return render(summaryTo(out), merged)
}
