package experiments

import "encoding/json"

// GridPlan serves the perfbench harness (its own module under
// perfbench/): it enumerates an experiment's grid without simulating
// it, so the harness can time the enumeration and warm each context set
// before it runs the grid through RunShard.

// JobSpec describes one grid point: its stable key and the "+"-joined
// context set it simulates.
type JobSpec struct {
	// Key is the grid point's unique key, stable across processes.
	Key string
	// Workload is the ordered context set, elements joined with "+".
	Workload string
}

// GridPlan enumerates the named experiment's grid under o and returns
// the empty shard-file skeleton a single-process RunShard(0,1) run
// would produce — every header field set, Results empty — plus the
// job list in key order. Filled with that run's results, the skeleton
// serializes byte-identically to the run's own file.
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

// MarshalPretty serialises a shard file exactly as `iqbench -shard`
// and `-merge` write it: indented JSON plus a trailing newline. The
// encoding is deterministic (Go sorts map keys), so identical result
// sets produce identical bytes — the property the CI jobs' cmp of a
// merged file against a single-process run rests on.
func (sf *ShardFile) MarshalPretty() ([]byte, error) {
	b, err := json.MarshalIndent(sf, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
