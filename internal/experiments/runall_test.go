package experiments

import (
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/sim"
)

func testJobs(n int) []job {
	jobs := make([]job, n)
	for i := range jobs {
		jobs[i] = job{key: string(rune('a' + i)), wl: "swim"}
	}
	return jobs
}

// TestRunAllWithStopsAfterFailure: with serial execution, a failing job
// must prevent every not-yet-started job from running at all — the stop
// flag is checked before the runner is invoked.
func TestRunAllWithStopsAfterFailure(t *testing.T) {
	o := Options{Parallel: 1}
	var invocations atomic.Int64
	boom := errors.New("boom")
	res, err := o.runAllWith(testJobs(6), func(j job) (*sim.Result, error) {
		invocations.Add(1)
		return nil, boom
	})
	if res != nil {
		t.Errorf("expected nil results after failure, got %d entries", len(res))
	}
	if !errors.Is(err, boom) {
		t.Fatalf("expected wrapped boom error, got %v", err)
	}
	if got := invocations.Load(); got != 1 {
		t.Errorf("runner invoked %d times after first failure, want exactly 1", got)
	}
}

// TestRunAllWithErrorNamesJob: the returned error identifies which job
// failed.
func TestRunAllWithErrorNamesJob(t *testing.T) {
	o := Options{Parallel: 1}
	boom := errors.New("no forward progress")
	_, err := o.runAllWith(testJobs(1), func(j job) (*sim.Result, error) {
		return nil, boom
	})
	if err == nil || !strings.Contains(err.Error(), "a:") {
		t.Fatalf("error should name the failing job key, got %v", err)
	}
}

// TestRunAllValidatesBenchmarks: an unknown workload name fails fast with
// a clear error, before any simulation or warmup runs.
func TestRunAllValidatesBenchmarks(t *testing.T) {
	o := DefaultOptions()
	o.Benchmarks = []string{"swim", "nope"}
	_, err := o.runAll([]job{{key: "x", cfg: sim.DefaultConfig(sim.QueueIdeal, 64), wl: "swim"}})
	if err == nil || !strings.Contains(err.Error(), `"nope"`) {
		t.Fatalf("expected error naming the unknown benchmark, got %v", err)
	}
	if !strings.Contains(err.Error(), "swim") {
		t.Errorf("error should list the valid names, got %v", err)
	}
}

// TestRunAllForkMatchesColdPath: the checkpoint-fork scheduler must
// reproduce the cold warm-every-run path bit for bit — same cycles, same
// stats — including when several grid points share one checkpoint, when
// one workload needs checkpoints for two predictor geometries, and when
// a machine of a different width runs as a one-member family.
func TestRunAllForkMatchesColdPath(t *testing.T) {
	o := Options{Instructions: 3000, Warmup: 20_000, Seed: 1, Parallel: 4}
	smallBP := sim.DefaultConfig(sim.QueueIdeal, 128)
	bp := &smallBP.BranchPredictor
	bp.GlobalHistBits, bp.LocalHistBits, bp.LocalEntries, bp.ChoiceHistBits = 8, 8, 256, 8
	narrow := sim.DefaultConfig(sim.QueueIdeal, 128)
	narrow.FetchWidth, narrow.DispatchWidth, narrow.IssueWidth, narrow.CommitWidth = 4, 4, 4, 4
	jobs := []job{
		{key: "swim/ideal", cfg: sim.DefaultConfig(sim.QueueIdeal, 128), wl: "swim"},
		{key: "swim/seg", cfg: sim.SegmentedConfig(128, 64, true, true), wl: "swim"},
		{key: "swim/seg32", cfg: sim.SegmentedConfig(32, 64, true, true), wl: "swim"},
		{key: "swim/ideal-bpS", cfg: smallBP, wl: "swim"},
		{key: "swim/ideal-w4", cfg: narrow, wl: "swim"},
		{key: "gcc/ideal", cfg: sim.DefaultConfig(sim.QueueIdeal, 128), wl: "gcc"},
	}
	res, err := o.runAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		cold, err := sim.RunContexts(j.cfg, o.contexts(j.wl), o.Instructions)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res[j.key], cold) {
			t.Errorf("%s: forked sweep result differs from cold run", j.key)
		}
	}
}

// TestCheckpointCacheEvictsAfterLastFork: a checkpoint is held exactly as
// long as grid points still need to fork it — the last fork for a key
// releases the warmed template, so a long batch does not keep every
// workload's machine alive until the end. Each job runs as a one-member
// family, so every fork is a separate runFamily call.
func TestCheckpointCacheEvictsAfterLastFork(t *testing.T) {
	o := Options{Instructions: 300, Warmup: 4000, Seed: 1, Parallel: 1}
	jobs := []job{
		{key: "swim/64", cfg: sim.DefaultConfig(sim.QueueIdeal, 64), wl: "swim"},
		{key: "swim/128", cfg: sim.DefaultConfig(sim.QueueIdeal, 128), wl: "swim"},
		{key: "gcc/64", cfg: sim.DefaultConfig(sim.QueueIdeal, 64), wl: "gcc"},
	}
	cks := &ckCache{o: o, m: make(map[ckKey]*ckEntry)}
	cks.retain(jobs)

	entries := func() int {
		cks.mu.Lock()
		defer cks.mu.Unlock()
		return len(cks.m)
	}
	if got := entries(); got != 2 {
		t.Fatalf("retain registered %d keys, want 2 (both swim jobs share one checkpoint)", got)
	}
	if _, err := cks.runFamily(family{jobs: jobs[0:1]}, o.Instructions); err != nil {
		t.Fatal(err)
	}
	if got := entries(); got != 2 {
		t.Fatalf("swim checkpoint evicted with a grid point still unforked (entries=%d)", got)
	}
	if _, err := cks.runFamily(family{jobs: jobs[1:2]}, o.Instructions); err != nil {
		t.Fatal(err)
	}
	if got := entries(); got != 1 {
		t.Fatalf("swim checkpoint not evicted after its last fork (entries=%d)", got)
	}
	if _, err := cks.runFamily(family{jobs: jobs[2:3]}, o.Instructions); err != nil {
		t.Fatal(err)
	}
	if got := entries(); got != 0 {
		t.Fatalf("cache still holds %d checkpoints after the batch", got)
	}
}

// TestRunAllWithSuccess: every job runs once and every result is keyed.
func TestRunAllWithSuccess(t *testing.T) {
	o := Options{Parallel: 3}
	var invocations atomic.Int64
	jobs := testJobs(8)
	res, err := o.runAllWith(jobs, func(j job) (*sim.Result, error) {
		invocations.Add(1)
		return &sim.Result{Workload: j.wl}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := invocations.Load(); got != int64(len(jobs)) {
		t.Errorf("runner invoked %d times, want %d", got, len(jobs))
	}
	for _, j := range jobs {
		if res[j.key] == nil {
			t.Errorf("missing result for job %q", j.key)
		}
	}
}
