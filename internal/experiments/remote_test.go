package experiments

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/sim"
)

// Remote checkpoint-store sweeps. Two contracts under test:
//
//  1. Robustness — a sweep backed by an unreachable, dying, or
//     otherwise broken store must complete with simulated counts
//     byte-identical to a store-less run (store failures degrade to
//     local warmups; they never abort a batch).
//  2. Sharing — shards pointed at one live server reuse each other's
//     uploaded warmups, and the merged result set is identical to the
//     single-process run.

// TestRemoteShardedSweepSharesWarmups: shard 0 warms and uploads;
// shard 1, run afterwards against the same server, hits every key; the
// merge equals the single-process, store-less run bit for bit.
func TestRemoteShardedSweepSharesWarmups(t *testing.T) {
	srv := httptest.NewServer(sim.NewStoreHandler(t.TempDir()))
	defer srv.Close()

	full, err := RunShard(shardTestOptions(), "table2", 0, 1)
	if err != nil {
		t.Fatal(err)
	}

	o0 := shardTestOptions()
	o0.CheckpointURL = srv.URL
	o0.CkptStats = &CkptStats{}
	s0, err := RunShard(o0, "table2", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The round-robin partition gives shard 0 every gcc point and shard
	// 1 every swim point, so each shard warms (and uploads) exactly one
	// workload.
	if h, m := o0.CkptStats.Hits.Load(), o0.CkptStats.Misses.Load(); h != 0 || m != 1 {
		t.Fatalf("shard 0 against an empty store: hits=%d misses=%d, want 0/1", h, m)
	}
	if o0.CkptStats.BytesWritten.Load() == 0 {
		t.Fatal("shard 0 uploaded nothing")
	}

	o1 := shardTestOptions()
	o1.CheckpointURL = srv.URL
	o1.CkptStats = &CkptStats{}
	s1, err := RunShard(o1, "table2", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if h, m := o1.CkptStats.Hits.Load(), o1.CkptStats.Misses.Load(); h != 0 || m != 1 {
		t.Fatalf("shard 1 against an empty swim key: hits=%d misses=%d, want 0/1", h, m)
	}
	if f := o1.CkptStats.Fallbacks.Load() + o0.CkptStats.Fallbacks.Load(); f != 0 {
		t.Fatalf("healthy server produced %d fallbacks", f)
	}

	// A re-run of shard 0 in a "new process" (fresh Options and stats)
	// must find shard 0's earlier upload on the server: a remote hit,
	// nothing warmed locally, same bytes in as went out.
	o2 := shardTestOptions()
	o2.CheckpointURL = srv.URL
	o2.CkptStats = &CkptStats{}
	s0again, err := RunShard(o2, "table2", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if h, m := o2.CkptStats.Hits.Load(), o2.CkptStats.Misses.Load(); h != 1 || m != 0 {
		t.Fatalf("shard 0 rerun: hits=%d misses=%d, want 1/0 (remote reuse)", h, m)
	}
	if got, want := o2.CkptStats.BytesRead.Load(), o0.CkptStats.BytesWritten.Load(); got != want {
		t.Fatalf("rerun read %d bytes, shard 0 wrote %d", got, want)
	}
	if !reflect.DeepEqual(s0again.Results, s0.Results) {
		t.Fatal("shard rerun from the remote checkpoint differs from the run that built it")
	}

	merged, err := MergeShards([]*ShardFile{s0, s1})
	if err != nil {
		t.Fatal(err)
	}
	// The merged file must equal the store-less single-process run —
	// including the absence of per-shard CkptStats, which MergeShards
	// drops as run-local metadata.
	if !reflect.DeepEqual(merged, full) {
		t.Fatal("remote-store sharded sweep differs from the single-process run")
	}
	if s0.CkptStats == nil || s1.CkptStats == nil {
		t.Fatal("shard files did not record their store counters")
	}
}

// TestSweepSurvivesStoreDeathMidRun: the server serves a couple of
// requests and then starts hanging up mid-connection (as a killed
// process would). The sweep must complete, report the failures in
// CkptStats, and produce results identical to a store-less run.
func TestSweepSurvivesStoreDeathMidRun(t *testing.T) {
	plain := runGrid(t, shardTestOptions(), "table2").Results

	inner := sim.NewStoreHandler(t.TempDir())
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) > 2 {
			panic(http.ErrAbortHandler) // sever the connection: the "server died"
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	o := shardTestOptions()
	o.CheckpointURL = srv.URL
	o.CkptStats = &CkptStats{}
	sf, err := RunShard(o, "table2", 0, 1)
	if err != nil {
		t.Fatalf("sweep failed when the store died mid-run: %v", err)
	}
	if !reflect.DeepEqual(sf.Results, plain) {
		t.Fatal("results differ from the store-less run after store death")
	}
	if pf, fb := o.CkptStats.PutFailures.Load(), o.CkptStats.Fallbacks.Load(); pf+fb == 0 {
		t.Fatalf("dead store left no trace in the stats: %s", o.CkptStats)
	}
}

// TestSweepSurvivesUnreachableStore: a wrong -ckpt-url (nothing has
// ever listened there) must not change any simulated number, only add
// fallbacks to the stats.
func TestSweepSurvivesUnreachableStore(t *testing.T) {
	plain := runGrid(t, shardTestOptions(), "table2").Results
	o := shardTestOptions()
	o.CheckpointURL = "http://127.0.0.1:1" // reserved port: connection refused
	o.CkptStats = &CkptStats{}
	sf, err := RunShard(o, "table2", 0, 1)
	if err != nil {
		t.Fatalf("sweep failed against an unreachable store: %v", err)
	}
	if !reflect.DeepEqual(sf.Results, plain) {
		t.Fatal("results differ from the store-less run")
	}
	if fb := o.CkptStats.Fallbacks.Load(); fb != 2 {
		t.Fatalf("Fallbacks = %d, want 2 (one per workload)", fb)
	}
	if h, m := o.CkptStats.Hits.Load(), o.CkptStats.Misses.Load(); h != 0 || m != 0 {
		t.Fatalf("unreachable store recorded hits=%d misses=%d", h, m)
	}
}

// TestSweepSurvivesUnwritableDirStore: the original PR 5 bug — a
// read-only/unwritable -ckpt-dir aborted a sweep whose checkpoints
// were already built. Now it must complete, counting put failures.
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
