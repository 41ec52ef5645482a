package experiments

import (
	"encoding/json"
	"maps"
	"testing"
)

// FuzzMergeShards: shard files come from other processes and hosts, so
// MergeShards and SimResults must survive any JSON a file set decodes
// to — an error, never a panic — and every merge they accept must cover
// the whole grid. The input is a JSON array of shard files.
func FuzzMergeShards(f *testing.F) {
	o := shardTestOptions()
	var split []*ShardFile
	for i := 0; i < 2; i++ {
		sf, err := RunShard(o, "table2", i, 2)
		if err != nil {
			f.Fatal(err)
		}
		split = append(split, sf)
	}
	add := func(files []*ShardFile) {
		b, err := json.Marshal(files)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	add(split)
	// Both shards carry a null result for the same grid point, one that
	// belongs to the first shard: the merge then counts the full grid.
	first := ""
	for k := range split[0].Results {
		if first == "" || k < first {
			first = k
		}
	}
	var nulls []*ShardFile
	for _, sf := range split {
		c := *sf
		c.Results = maps.Clone(sf.Results)
		c.Results[first] = nil
		nulls = append(nulls, &c)
	}
	add(nulls)
	f.Fuzz(func(t *testing.T, data []byte) {
		var files []*ShardFile
		if json.Unmarshal(data, &files) != nil {
			return
		}
		merged, err := MergeShards(files)
		if err != nil {
			return
		}
		if n := len(merged.SimResults()); n != merged.TotalJobs {
			t.Fatalf("merge accepted %d results for a %d-point grid", n, merged.TotalJobs)
		}
	})
}
