// Command iqbench regenerates the paper's evaluation: Figure 2, Table 2,
// Figure 3, the in-text measurements (§4.3, §4.4, §4.5, §6.1), the §2
// related-work comparison, the §7 power proxy, the design-choice
// ablations and the SMT matrix. Output is the textual equivalent of each
// table or figure; EXPERIMENTS.md records a captured run against the
// paper's numbers.
//
// Every experiment is one entry of the experiments package's registry,
// and every mode reads that table: a direct run is RunShard(0,1)
// followed by the same render -merge prints, so -shard and -merge work
// alike for all of them. Without -out, -shard and -merge write the JSON
// to stdout and their summaries and tables to stderr.
//
// Examples:
//
//	iqbench                         # every experiment but smt, default sample sizes
//	iqbench -experiment fig2
//	iqbench -experiment fig3 -n 100000 -warm 500000
//	iqbench -experiment table2 -benchmarks swim,equake
//	iqbench -experiment smt         # SMT matrix: context sets × designs × 2/4 contexts
//	iqbench -experiment smt -benchmarks swim+twolf,mgrid+gcc
//
// One process runs its grid on an in-process pool of -parallel
// simulations. Sweeps can reuse warmups across processes, and a static
// -shard split spreads one grid over several hosts:
//
//	iqbench -ckpt-dir .ckpt -experiment table2      # warm once ever, fork after
//	iqbench -experiment table2 -shard 0/2 -out s0.json
//	iqbench -experiment table2 -shard 1/2 -out s1.json
//	iqbench -merge s0.json,s1.json -out merged.json # ≡ the single-process run
//
// Shards that see one directory share warmups by passing it as
// -ckpt-dir. The cache is strictly an accelerator: if the directory is
// unreadable or unwritable, shards warm locally and finish with
// identical results. -ckpt-dir is rejected with -merge, which only
// reads shard files.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
)

func main() {
	var (
		exp       = flag.String("experiment", "all", strings.Join(experiments.Experiments, ", ")+", or all")
		n         = flag.Int64("n", 0, "measured instructions per run (0 = default)")
		warm      = flag.Int64("warm", 0, "warm-up instructions per run (0 = default)")
		seed      = flag.Uint64("seed", 1, "workload seed")
		benches   = flag.String("benchmarks", "", "comma-separated benchmark subset (default all)")
		par       = flag.Int("parallel", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		ckptDir   = flag.String("ckpt-dir", "", "directory backing the warm-checkpoint cache: warmups found there are loaded instead of re-simulated, new ones are saved for later runs")
		noPrefix  = flag.Bool("no-prefix-share", false, "fork every sweep point from its warm checkpoint instead of sharing the detailed prefix of each sweep family's most permissive member; results are bit-identical either way (this flag exists for cross-checking and for before/after perf comparisons)")
		shard     = flag.String("shard", "", "run only shard i/n of the experiment grid (format i/n) and write a shard JSON; requires a single -experiment")
		out       = flag.String("out", "", "output path for -shard / -merge JSON (default stdout)")
		mergeList = flag.String("merge", "", "comma-separated shard JSON files: merge them, verify completeness, write the combined JSON and render the experiment")
	)
	flag.Parse()

	if err := checkCkptDir(*ckptDir, *mergeList != ""); err != nil {
		fmt.Fprintf(os.Stderr, "iqbench: %v\n", err)
		os.Exit(2)
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

	if *mergeList != "" {
		if err := mergeShardFiles(strings.Split(*mergeList, ","), *out); err != nil {
			fmt.Fprintf(os.Stderr, "iqbench: merge: %v\n", err)
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

// checkCkptDir rejects -ckpt-dir with -merge, which only reads shard
// files and never uses the checkpoint cache. Silently ignoring the flag
// there would let a user believe warmups are cached.
func checkCkptDir(ckptDir string, mergeMode bool) error {
	if ckptDir == "" || !mergeMode {
		return nil
	}
	return errors.New("-ckpt-dir has no effect with -merge: it only reads shard files")
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
