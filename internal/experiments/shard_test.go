package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func shardTestOptions() Options {
	return Options{Instructions: 2000, Warmup: 10_000, Seed: 1, Benchmarks: []string{"swim", "gcc"}}
}

// TestShardedSweepMatchesSingleProcess is the sharding contract, checked
// for every registered experiment: two shards merged (in either order)
// are byte-identical to the single-process run, including the
// serialized JSON that CI compares with cmp(1); the merge renders the
// same text as the direct run; and a coordinator's GridPlan skeleton
// filled by RunJobs over every key reproduces the same file.
func TestShardedSweepMatchesSingleProcess(t *testing.T) {
	o := Options{Instructions: 500, Warmup: 2000, Seed: 1, Benchmarks: []string{"swim"}}
	for _, name := range Experiments {
		t.Run(name, func(t *testing.T) {
			full := runGrid(t, o, name)
			want, err := full.MarshalPretty()
			if err != nil {
				t.Fatal(err)
			}
			direct, err := Render(full)
			if err != nil {
				t.Fatal(err)
			}

			s0, err := RunShard(o, name, 0, 2)
			if err != nil {
				t.Fatal(err)
			}
			s1, err := RunShard(o, name, 1, 2)
			if err != nil {
				t.Fatal(err)
			}
			merged, err := MergeShards([]*ShardFile{s1, s0})
			if err != nil {
				t.Fatal(err)
			}
			if got, _ := merged.MarshalPretty(); !bytes.Equal(got, want) {
				t.Fatal("merged JSON is not byte-identical to the single-process JSON")
			}
			if text, err := Render(merged); err != nil || text != direct {
				t.Fatalf("merge renders differently from the direct run (err %v):\n%s\nvs\n%s", err, text, direct)
			}

			plan, jobs, err := GridPlan(o, name)
			if err != nil {
				t.Fatal(err)
			}
			keys := make([]string, len(jobs))
			for i, j := range jobs {
				keys[i] = j.Key
			}
			frag, err := RunJobs(o, name, keys)
			if err != nil {
				t.Fatal(err)
			}
			plan.Results = frag.Results
			for _, sf := range []*ShardFile{plan, frag} {
				if got, _ := sf.MarshalPretty(); !bytes.Equal(got, want) {
					t.Fatal("GridPlan + RunJobs over every key differs from the single-process JSON")
				}
			}
		})
	}
}

// TestShardPartitionCoversEveryExperiment: for every registered grid,
// the shard partition is a disjoint cover, independent of shard count.
func TestShardPartitionCoversEveryExperiment(t *testing.T) {
	o := Options{Instructions: 1, Warmup: 1, Seed: 1, Benchmarks: []string{"swim"}}
	for _, e := range registry {
		jobs, err := experimentJobs(e.name, o)
		if err != nil {
			t.Fatal(err)
		}
		if len(jobs) == 0 {
			t.Fatalf("%s: empty grid", e.name)
		}
		for _, n := range []int{1, 2, 3, 7} {
			seen := make(map[string]int)
			for shard := 0; shard < n; shard++ {
				for i := shard; i < len(jobs); i += n {
					seen[jobs[i].key]++
				}
			}
			if len(seen) != len(jobs) {
				t.Fatalf("%s/%d shards: %d keys covered, grid has %d", e.name, n, len(seen), len(jobs))
			}
			for key, c := range seen {
				if c != 1 {
					t.Fatalf("%s/%d shards: key %s assigned %d times", e.name, n, key, c)
				}
			}
		}
	}
	if _, err := experimentJobs("nope", o); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestSelect: "all" runs every registered experiment but the SMT matrix,
// in registry order; a single name runs itself; unknown names fail.
func TestSelect(t *testing.T) {
	all, err := Select("all")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"fig2", "table2", "fig3", "intext", "related", "power", "ablations"}
	if !reflect.DeepEqual(all, want) {
		t.Fatalf("Select(all) = %v, want %v", all, want)
	}
	if one, err := Select("smt"); err != nil || !reflect.DeepEqual(one, []string{"smt"}) {
		t.Fatalf("Select(smt) = %v, %v", one, err)
	}
	if _, err := Select("nope"); err == nil || !strings.Contains(err.Error(), "fig2") {
		t.Fatalf("unknown experiment: got %v, want an error listing the registry", err)
	}
}

// TestMergeShardsRejectsBadSets: incomplete, duplicated or mismatched
// shard sets must fail loudly rather than merge into a wrong result.
// Table-driven over every header and partition invariant MergeShards
// enforces; each case corrupts a fresh copy of a valid two-shard set.
func TestMergeShardsRejectsBadSets(t *testing.T) {
	o := shardTestOptions()
	s0, err := RunShard(o, "table2", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := RunShard(o, "table2", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	oo := o
	oo.Instructions++
	x1, err := RunShard(oo, "table2", 1, 2)
	if err != nil {
		t.Fatal(err)
	}

	// clone deep-copies a shard file so a case can corrupt it freely.
	clone := func(sf *ShardFile) *ShardFile {
		c := *sf
		c.Results = make(map[string]*RecordedResult, len(sf.Results))
		for k, r := range sf.Results {
			rr := *r
			c.Results[k] = &rr
		}
		return &c
	}
	anyKey := func(sf *ShardFile) string {
		for k := range sf.Results {
			return k
		}
		t.Fatal("shard holds no results")
		return ""
	}

	cases := []struct {
		name  string
		files func() []*ShardFile
		want  string // substring the error must contain
	}{
		{"empty set", func() []*ShardFile { return nil }, "zero shard files"},
		{"incomplete set", func() []*ShardFile { return []*ShardFile{s0} }, "1 shard files"},
		{"duplicate shard index", func() []*ShardFile { return []*ShardFile{s0, s0} }, "supplied twice"},
		{"mixed scale", func() []*ShardFile { return []*ShardFile{s0, x1} }, "header mismatch"},
		{"wrong schema", func() []*ShardFile {
			b := clone(s0)
			b.Schema = ShardSchema + 1
			return []*ShardFile{b, s1}
		}, "schema"},
		{"mismatched experiment", func() []*ShardFile {
			b := clone(s1)
			b.Experiment = "fig2"
			return []*ShardFile{s0, b}
		}, "header mismatch"},
		{"mismatched contexts", func() []*ShardFile {
			b := clone(s1)
			b.Contexts = 4 // an SMT shard can never merge with a single-threaded one
			return []*ShardFile{s0, b}
		}, "header mismatch"},
		{"mismatched seed", func() []*ShardFile {
			b := clone(s1)
			b.Seed++
			return []*ShardFile{s0, b}
		}, "header mismatch"},
		{"mismatched benchmarks", func() []*ShardFile {
			b := clone(s1)
			b.Benchmarks = []string{"swim"}
			return []*ShardFile{s0, b}
		}, "header mismatch"},
		{"shard index beyond NumShards", func() []*ShardFile {
			b := clone(s1)
			b.Shard = 5 // claims shard 5 of a 2-shard sweep
			return []*ShardFile{s0, b}
		}, "out of range"},
		{"negative shard index", func() []*ShardFile {
			b := clone(s1)
			b.Shard = -1
			return []*ShardFile{s0, b}
		}, "out of range"},
		{"overlapping grid point", func() []*ShardFile {
			b := clone(s1)
			k := anyKey(s0)
			b.Results[k] = s0.Results[k] // the same point in both shards
			return []*ShardFile{s0, b}
		}, "more than one shard"},
		{"missing grid point", func() []*ShardFile {
			b := clone(s1)
			delete(b.Results, anyKey(b))
			return []*ShardFile{s0, b}
		}, "grid has"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := MergeShards(c.files())
			if err == nil {
				t.Fatalf("%s accepted", c.name)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestCheckpointDirSkipsWarmup: with a checkpoint directory, the first
// batch pays every warmup and saves it; a second batch over the same
// options loads every checkpoint (all hits) and produces identical
// results.
func TestCheckpointDirSkipsWarmup(t *testing.T) {
	o := shardTestOptions()
	plain := runGrid(t, o, "table2").Results

	o.CheckpointDir = t.TempDir()
	o.CkptStats = &CkptStats{}
	cold := runGrid(t, o, "table2").Results
	if h, m := o.CkptStats.Hits.Load(), o.CkptStats.Misses.Load(); h != 0 || m != 2 {
		t.Fatalf("cold batch: hits=%d misses=%d, want 0/2 (one per workload)", h, m)
	}

	o.CkptStats = &CkptStats{}
	warm := runGrid(t, o, "table2").Results
	if h, m := o.CkptStats.Hits.Load(), o.CkptStats.Misses.Load(); h != 2 || m != 0 {
		t.Fatalf("warm batch: hits=%d misses=%d, want 2/0", h, m)
	}

	if !reflect.DeepEqual(cold, plain) {
		t.Fatal("store-backed cold batch differs from in-memory batch")
	}
	if !reflect.DeepEqual(warm, cold) {
		t.Fatal("store-hit batch differs from the batch that built the store")
	}
}
