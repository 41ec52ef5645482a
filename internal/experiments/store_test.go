package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

// Checkpoint-store sweeps. Two contracts under test:
//
//  1. Sharing — shards pointed at one -ckpt-dir reuse each other's
//     saved warmups, and the merged result set is identical to the
//     single-process run.
//  2. Robustness — a sweep backed by an unreadable or unwritable store
//     must complete with simulated counts byte-identical to a
//     store-less run (store failures degrade to local warmups; they
//     never abort a batch).

// TestShardedSweepSharesWarmups: shard 0 warms and saves; shard 1 warms
// the other workload; a re-run of shard 0 in a fresh "process" hits
// shard 0's file; the merge equals the single-process, store-less run
// bit for bit.
func TestShardedSweepSharesWarmups(t *testing.T) {
	dir := t.TempDir()
	full, err := RunShard(shardTestOptions(), "table2", 0, 1)
	if err != nil {
		t.Fatal(err)
	}

	o0 := shardTestOptions()
	o0.CheckpointDir = dir
	o0.CkptStats = &CkptStats{}
	s0, err := RunShard(o0, "table2", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The round-robin partition gives shard 0 every gcc point and shard
	// 1 every swim point, so each shard warms (and saves) exactly one
	// workload.
	if h, m := o0.CkptStats.Hits.Load(), o0.CkptStats.Misses.Load(); h != 0 || m != 1 {
		t.Fatalf("shard 0 against an empty store: hits=%d misses=%d, want 0/1", h, m)
	}
	if o0.CkptStats.BytesWritten.Load() == 0 {
		t.Fatal("shard 0 saved nothing")
	}

	o1 := shardTestOptions()
	o1.CheckpointDir = dir
	o1.CkptStats = &CkptStats{}
	s1, err := RunShard(o1, "table2", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if h, m := o1.CkptStats.Hits.Load(), o1.CkptStats.Misses.Load(); h != 0 || m != 1 {
		t.Fatalf("shard 1 against an empty swim key: hits=%d misses=%d, want 0/1", h, m)
	}

	// A re-run of shard 0 with fresh Options and stats must find shard
	// 0's earlier file: a hit, nothing warmed, same bytes in as went out.
	o2 := shardTestOptions()
	o2.CheckpointDir = dir
	o2.CkptStats = &CkptStats{}
	s0again, err := RunShard(o2, "table2", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if h, m := o2.CkptStats.Hits.Load(), o2.CkptStats.Misses.Load(); h != 1 || m != 0 {
		t.Fatalf("shard 0 rerun: hits=%d misses=%d, want 1/0", h, m)
	}
	if got, want := o2.CkptStats.BytesRead.Load(), o0.CkptStats.BytesWritten.Load(); got != want {
		t.Fatalf("rerun read %d bytes, shard 0 wrote %d", got, want)
	}
	if !reflect.DeepEqual(s0again.Results, s0.Results) {
		t.Fatal("shard rerun from the stored checkpoint differs from the run that built it")
	}

	merged, err := MergeShards([]*ShardFile{s0, s1})
	if err != nil {
		t.Fatal(err)
	}
	// The merged file must equal the store-less single-process run —
	// including the absence of per-shard CkptStats, which MergeShards
	// drops as run-local metadata.
	if !reflect.DeepEqual(merged, full) {
		t.Fatal("store-backed sharded sweep differs from the single-process run")
	}
	if s0.CkptStats == nil || s1.CkptStats == nil {
		t.Fatal("shard files did not record their store counters")
	}
}

// TestSweepSurvivesUnreachableStore: a store whose files cannot be read
// (each key's path is a directory) must not change any simulated
// number, only add fallbacks to the stats.
func TestSweepSurvivesUnreachableStore(t *testing.T) {
	plain := runGrid(t, shardTestOptions(), "table2").Results
	dir := t.TempDir()
	o := shardTestOptions()
	o.CheckpointDir = dir
	runGrid(t, o, "table2")
	// Replace every saved checkpoint with a directory of the same name.
	keys, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 {
		t.Fatalf("cold run saved %d files, want 2 (one per workload)", len(keys))
	}
	for _, k := range keys {
		path := filepath.Join(dir, k.Name())
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
		if err := os.Mkdir(path, 0o777); err != nil {
			t.Fatal(err)
		}
	}

	o.CkptStats = &CkptStats{}
	sf, err := RunShard(o, "table2", 0, 1)
	if err != nil {
		t.Fatalf("sweep failed against an unreadable store: %v", err)
	}
	if !reflect.DeepEqual(sf.Results, plain) {
		t.Fatal("results differ from the store-less run")
	}
	if fb := o.CkptStats.Fallbacks.Load(); fb != 2 {
		t.Fatalf("Fallbacks = %d, want 2 (one per workload)", fb)
	}
	if h, m := o.CkptStats.Hits.Load(), o.CkptStats.Misses.Load(); h != 0 || m != 0 {
		t.Fatalf("unreadable store recorded hits=%d misses=%d", h, m)
	}
}

// TestSweepSurvivesUnwritableDirStore: a read-only/unwritable -ckpt-dir
// once aborted a sweep whose checkpoints were already built. It must
// complete, counting put failures.
func TestSweepSurvivesUnwritableDirStore(t *testing.T) {
	plain := runGrid(t, shardTestOptions(), "table2").Results
	o := shardTestOptions()
	// A directory path running through a regular file is unwritable on
	// every platform, even for root (unlike a chmod-protected dir).
	blocker := filepath.Join(t.TempDir(), "blocker")
	if err := os.WriteFile(blocker, []byte("not a directory"), 0o666); err != nil {
		t.Fatal(err)
	}
	o.CheckpointDir = blocker + "/store"
	o.CkptStats = &CkptStats{}
	sf, err := RunShard(o, "table2", 0, 1)
	if err != nil {
		t.Fatalf("sweep failed on an unwritable store dir: %v", err)
	}
	if !reflect.DeepEqual(sf.Results, plain) {
		t.Fatal("results differ from the store-less run")
	}
	if pf := o.CkptStats.PutFailures.Load(); pf != 2 {
		t.Fatalf("PutFailures = %d, want 2 (one per workload)", pf)
	}
}

// TestColdCheckpointFilesIndependentOfJobOrder: two cold batches that
// reach each checkpoint key through different grid points — here the
// same fig2 grid in opposite orders — must write byte-identical
// checkpoint files, so any shard split or -parallel setting fills a
// store with the same bytes.
func TestColdCheckpointFilesIndependentOfJobOrder(t *testing.T) {
	o := Options{Instructions: 300, Warmup: 4000, Seed: 1, Benchmarks: []string{"swim", "gcc"}}
	jobs, err := experimentJobs("fig2", o)
	if err != nil {
		t.Fatal(err)
	}
	var dirs [2]string
	for i := range dirs {
		dirs[i] = t.TempDir()
		oo := o
		oo.CheckpointDir = dirs[i]
		cks := &ckCache{o: oo, st: oo.store(), m: make(map[ckKey]*ckEntry)}
		order := slices.Clone(jobs)
		if i == 1 {
			slices.Reverse(order)
		}
		for _, j := range order {
			if _, err := cks.get(j); err != nil {
				t.Fatal(err)
			}
		}
	}
	files, err := os.ReadDir(dirs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("cold batch stored %d files, want 2 (one per workload)", len(files))
	}
	for _, f := range files {
		a, err := os.ReadFile(filepath.Join(dirs[0], f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirs[1], f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: %d bytes in one order, %d in the other", f.Name(), len(a), len(b))
		}
	}
}
