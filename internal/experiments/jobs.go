package experiments

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Grid-plan and job-subset entry points for the sweep coordinator
// (internal/coord): the coordinator enumerates an experiment's grid
// once, hands out job keys under leases, and workers simulate exactly
// the named subset, returning a fragment ShardFile the coordinator
// accumulates into the file a single-process RunShard(0,1) run would
// have written.

// JobSpec describes one grid point for scheduling purposes: its stable
// key and the "+"-joined context set it simulates (the workload string
// is what a cost model prices).
type JobSpec struct {
	// Key is the grid point's unique key, stable across processes.
	Key string
	// Workload is the ordered context set, elements joined with "+".
	Workload string
}

// GridPlan enumerates the named experiment's grid under o and returns
// the empty shard-file skeleton a single-process RunShard(0,1) run
// would produce — every header field set, Results empty — plus the
// job list in key order. The skeleton is what a coordinator validates
// incoming fragments against and accumulates completed results into;
// once full, its serialized form is byte-identical to the
// single-process run's.
func GridPlan(o Options, experiment string) (*ShardFile, []JobSpec, error) {
	grid, err := experimentJobs(experiment, o)
	if err != nil {
		return nil, nil, err
	}
	specs := make([]JobSpec, len(grid))
	for i, j := range grid {
		specs[i] = JobSpec{Key: j.key, Workload: j.wl}
	}
	return newShardFile(o, experiment, grid, 0, 1), specs, nil
}

// RunJobs simulates exactly the named grid points of the experiment
// and returns them as a fragment: a ShardFile with the single-process
// header (shard 0 of 1, TotalJobs the whole grid) whose Results hold
// only the requested keys. Fragments from disjoint key sets accumulate
// into the full single-process file. Unknown keys are rejected before
// any simulation is spent.
func RunJobs(o Options, experiment string, keys []string) (*ShardFile, error) {
	grid, err := experimentJobs(experiment, o)
	if err != nil {
		return nil, err
	}
	byKey := make(map[string]job, len(grid))
	for _, j := range grid {
		byKey[j.key] = j
	}
	mine := make([]job, 0, len(keys))
	seen := make(map[string]bool, len(keys))
	for _, k := range keys {
		j, ok := byKey[k]
		if !ok {
			return nil, fmt.Errorf("experiments: job %q is not in %s's grid", k, experiment)
		}
		if seen[k] {
			return nil, fmt.Errorf("experiments: job %q requested twice", k)
		}
		seen[k] = true
		mine = append(mine, j)
	}
	return o.simulate(experiment, grid, mine, 0, 1)
}

// Header returns the canonical header string every shard or fragment
// of one sweep must agree on (experiment, scale, seed, context shape,
// partition, grid size, workload set). Exported for the coordinator's
// fragment validation; MergeShards uses the same string internally.
func (sf *ShardFile) Header() string { return sf.header() }

// MarshalPretty serialises a shard file exactly as `iqbench -shard`
// and `-merge` write it: indented JSON plus a trailing newline. The
// encoding is deterministic (Go sorts map keys), so identical result
// sets produce identical bytes — the property the coordinator's
// cmp-vs-single-process contract rests on.
func (sf *ShardFile) MarshalPretty() ([]byte, error) {
	b, err := json.MarshalIndent(sf, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// ContextCount returns the number of hardware contexts a "+"-joined
// workload string names.
func ContextCount(workload string) int {
	return strings.Count(workload, "+") + 1
}
