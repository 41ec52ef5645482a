package experiments

import (
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Cross-process sweep sharding. A grid is an ordered job list (sorted by
// key, so every process derives the identical order); shard i of n runs
// the jobs at positions i, i+n, i+2n, … and records its results in a
// ShardFile. Merging the n files reproduces, bit for bit, the result set
// a single process would have produced — simulations are deterministic
// and jobs are independent — so a sweep can be spread across machines
// with no loss of reproducibility. Combined with a shared CheckpointDir,
// the shards also skip re-warming workloads another shard (or an earlier
// sweep) has already warmed.

// ShardSchema versions the shard-file JSON layout. Version 2 added the
// Contexts header field (SMT grids); version-1 files are rejected by
// MergeShards rather than merged with a silently missing field.
const ShardSchema = 2

// gridContexts returns the grid's maximum hardware-context count: 1 for
// the single-threaded experiments, the largest "+"-joined set for the
// SMT matrix. Recorded in the shard header so shards of grids with
// different context shapes can never be merged.
func gridContexts(jobs []job) int {
	m := 1
	for _, j := range jobs {
		m = max(m, strings.Count(j.wl, "+")+1)
	}
	return m
}

// RecordedResult is one grid point's result in shard-file form:
// sim.Result with the statistics flattened to a plain map.
type RecordedResult struct {
	Workload     string
	QueueName    string
	Instructions int64
	Cycles       int64
	IPC          float64
	Stats        map[string]float64
}

// ShardFile is the JSON document one sweep shard writes. The header
// fields pin everything the result set depends on; Merge refuses files
// whose headers disagree, so results from different grids or scales can
// never be silently combined.
type ShardFile struct {
	Schema     int
	Experiment string
	// Shard / NumShards locate this file in the partition. A merged file
	// (and a single-process run) is shard 0 of 1.
	Shard     int
	NumShards int
	// TotalJobs is the whole grid's size, for merge completeness checks.
	TotalJobs    int
	Instructions int64
	Warmup       int64
	Seed         uint64
	// Contexts is the grid's maximum hardware-context count (1 for the
	// single-threaded experiments).
	Contexts   int
	Benchmarks []string `json:",omitempty"`
	// Results maps job key -> result for this shard's grid positions.
	Results map[string]*RecordedResult
	// CkptStats records this shard's checkpoint-store counters (hits,
	// misses, fallbacks, ...) when a store was in use. Informational:
	// it is excluded from the merge header checks and dropped by
	// MergeShards, so merged files stay byte-identical to store-less
	// single-process runs.
	CkptStats map[string]int64 `json:",omitempty"`
}

// Prefix-sharing counters are deliberately NOT recorded in shard files:
// a sweep's sharing outcomes depend on how the grid was partitioned
// (shards can split a family), so embedding them would make otherwise
// bit-identical shard sets differ. Shard runs report sharing on the
// process's summary line instead (iqbench's [prefix: ...]), and the CI
// prefix-share job relies on shard files staying byte-identical with
// and without -no-prefix-share.

// RunShard simulates shard `shard` of `numShards` of the named
// experiment's grid under o. Shard 0 of 1 is exactly the full grid.
func RunShard(o Options, experiment string, shard, numShards int) (*ShardFile, error) {
	if numShards < 1 || shard < 0 || shard >= numShards {
		return nil, fmt.Errorf("experiments: shard %d/%d out of range", shard, numShards)
	}
	grid, err := experimentJobs(experiment, o)
	if err != nil {
		return nil, err
	}
	var mine []job
	for i := shard; i < len(grid); i += numShards {
		mine = append(mine, grid[i])
	}
	res, err := o.runAll(mine)
	if err != nil {
		return nil, err
	}
	sf := newShardFile(o, experiment, grid, shard, numShards)
	for key, r := range res {
		sf.Results[key] = &RecordedResult{
			Workload:     r.Workload,
			QueueName:    r.QueueName,
			Instructions: r.Instructions,
			Cycles:       r.Cycles,
			IPC:          r.IPC,
			Stats:        r.Stats.Values(),
		}
	}
	if o.CkptStats != nil {
		sf.CkptStats = o.CkptStats.Values()
	}
	return sf, nil
}

// newShardFile returns the header of shard `shard` of `numShards` of an
// experiment's grid under o, with no results yet. It is the one place a
// shard-file header is built: shards and GridPlan skeletons both start
// here.
func newShardFile(o Options, experiment string, grid []job, shard, numShards int) *ShardFile {
	return &ShardFile{
		Schema:       ShardSchema,
		Experiment:   experiment,
		Shard:        shard,
		NumShards:    numShards,
		TotalJobs:    len(grid),
		Instructions: o.Instructions,
		Warmup:       o.Warmup,
		Seed:         o.Seed,
		Contexts:     gridContexts(grid),
		Benchmarks:   o.Benchmarks,
		Results:      make(map[string]*RecordedResult),
	}
}

// header returns the fields every shard of one sweep must agree on.
func (sf *ShardFile) header() string {
	return fmt.Sprintf("%s n=%d warm=%d seed=%d ctx=%d shards=%d jobs=%d benches=%v",
		sf.Experiment, sf.Instructions, sf.Warmup, sf.Seed, sf.Contexts, sf.NumShards, sf.TotalJobs, sf.Benchmarks)
}

// Options reconstructs the run options a shard file was produced under
// (scale and workload-set fields only).
func (sf *ShardFile) Options() Options {
	return Options{
		Instructions: sf.Instructions,
		Warmup:       sf.Warmup,
		Seed:         sf.Seed,
		Benchmarks:   sf.Benchmarks,
	}
}

// SimResults rebuilds the sim.Result map the From assemblers consume.
func (sf *ShardFile) SimResults() map[string]*sim.Result {
	out := make(map[string]*sim.Result, len(sf.Results))
	for key, r := range sf.Results {
		out[key] = &sim.Result{
			Workload:     r.Workload,
			QueueName:    r.QueueName,
			Instructions: r.Instructions,
			Cycles:       r.Cycles,
			IPC:          r.IPC,
			Stats:        stats.SetFromValues(r.Stats),
		}
	}
	return out
}

// MergeShards recombines one complete set of shard files into the file a
// single-process run would have written (shard 0 of 1): same experiment,
// same scale, every shard present exactly once, every grid point covered
// exactly once.
func MergeShards(files []*ShardFile) (*ShardFile, error) {
	if len(files) == 0 {
		return nil, fmt.Errorf("experiments: merge of zero shard files")
	}
	// Size the merge by the results actually supplied, not by the
	// files' own TotalJobs claim.
	supplied := 0
	for i, sf := range files {
		if sf == nil {
			return nil, fmt.Errorf("experiments: shard file %d is empty", i)
		}
		supplied += len(sf.Results)
	}
	first := files[0]
	if first.Schema != ShardSchema {
		return nil, fmt.Errorf("experiments: shard schema %d, this build reads %d", first.Schema, ShardSchema)
	}
	if len(files) != first.NumShards {
		return nil, fmt.Errorf("experiments: %d shard files for a %d-shard sweep", len(files), first.NumShards)
	}
	seen := make(map[int]bool, len(files))
	merged := *first
	merged.Shard, merged.NumShards = 0, 1
	merged.Results = make(map[string]*RecordedResult, supplied)
	merged.CkptStats = nil
	for _, sf := range files {
		if sf.Schema != ShardSchema {
			return nil, fmt.Errorf("experiments: shard schema %d, this build reads %d", sf.Schema, ShardSchema)
		}
		if sf.Shard < 0 || sf.Shard >= sf.NumShards {
			return nil, fmt.Errorf("experiments: shard index %d out of range for a %d-shard sweep", sf.Shard, sf.NumShards)
		}
		if sf.header() != first.header() {
			return nil, fmt.Errorf("experiments: shard %d header mismatch:\n  %s\n  %s", sf.Shard, sf.header(), first.header())
		}
		if seen[sf.Shard] {
			return nil, fmt.Errorf("experiments: shard %d supplied twice", sf.Shard)
		}
		seen[sf.Shard] = true
		for key, r := range sf.Results {
			if r == nil {
				return nil, fmt.Errorf("experiments: shard %d has no result for grid point %s", sf.Shard, key)
			}
			if _, dup := merged.Results[key]; dup {
				return nil, fmt.Errorf("experiments: grid point %s in more than one shard", key)
			}
			merged.Results[key] = r
		}
	}
	if len(merged.Results) != merged.TotalJobs {
		return nil, fmt.Errorf("experiments: merged %d results, grid has %d", len(merged.Results), merged.TotalJobs)
	}
	return &merged, nil
}
