package sim

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// --- key sanitization -------------------------------------------------

// TestCheckpointKeySanitizesHostileNames: a workload name with path
// separators, dot-dot, or arbitrary bytes must produce a valid,
// directory-confined, collision-free store key.
func TestCheckpointKeySanitizesHostileNames(t *testing.T) {
	cfg := DefaultConfig(QueueIdeal, 128)
	hostile := []string{
		"../../etc/passwd",
		"..",
		"a/b",
		`a\b`,
		"sp ace",
		"new\nline",
		"per%cent",
		"dot.dot",
		"\x00nul",
		"ünïcode",
	}
	seen := make(map[string]string)
	for _, wl := range hostile {
		key := key1(&cfg, wl, 1, 1000)
		if !ValidStoreKey(key) {
			t.Errorf("key for %q is not valid: %q", wl, key)
		}
		if strings.ContainsAny(key, `/\`) || strings.Contains(key, "..") {
			t.Errorf("key for %q can escape the store dir: %q", wl, key)
		}
		if prev, dup := seen[key]; dup {
			t.Errorf("workloads %q and %q collide on key %q", prev, wl, key)
		}
		seen[key] = wl
		// The key must stay inside the store directory when joined.
		dir := t.TempDir()
		p := (&DirStore{Dir: dir}).Path(key)
		if rel, err := filepath.Rel(dir, p); err != nil || strings.HasPrefix(rel, "..") {
			t.Errorf("key for %q resolves outside the store: %q", wl, p)
		}
	}
	// Escaping must be injective: a pre-escaped name is distinct from
	// the name it would escape to.
	a := key1(&cfg, "a/b", 1, 1000)
	b := key1(&cfg, "a%2Fb", 1, 1000)
	if a == b {
		t.Errorf("escaped and literal names collide: %q", a)
	}
	// Plain benchmark names must be untouched, so stores written by
	// older builds keep hitting.
	if key := key1(&cfg, "swim", 3, 500); !strings.HasPrefix(key, "ck_swim_s3_w500_g") {
		t.Errorf("plain workload name was rewritten: %q", key)
	}
}

// TestDirStoreRejectsInvalidKeys: raw store access with a hostile key
// must error out, not touch the filesystem outside the store.
func TestDirStoreRejectsInvalidKeys(t *testing.T) {
	outer := t.TempDir()
	st := &DirStore{Dir: filepath.Join(outer, "store")}
	for _, key := range []string{"", "../escape", "a/b", "ck_..ckpt", "bad key"} {
		if _, found, err := st.get(key); err == nil || found {
			t.Errorf("get(%q) = %v, want invalid-key error", key, err)
		}
		if err := st.put(key, []byte("x")); err == nil {
			t.Errorf("put(%q) accepted a hostile key", key)
		}
	}
	if _, err := os.Stat(filepath.Join(outer, "escape")); !os.IsNotExist(err) {
		t.Fatal("hostile key escaped the store directory")
	}
}

// --- graceful degradation --------------------------------------------

// smallCfgKey are the shared scale parameters for the store tests:
// small enough to keep warmups cheap, big enough to be a real machine.
const (
	tstWorkload = "swim"
	tstSeed     = 3
	tstWarm     = 10_000
	tstN        = 2000
)

func tstConfig() Config { return DefaultConfig(QueueIdeal, 128) }

func tstSpec() ContextSpec {
	return ContextSpec{Workload: tstWorkload, Seed: tstSeed, Warm: tstWarm}
}

// key1 builds a store key for a single-context set.
func key1(cfg *Config, wl string, seed uint64, warm int64) string {
	return CheckpointKey(cfg, []ContextSpec{{Workload: wl, Seed: seed, Warm: warm}})
}

// runFork forks ck under cfg and runs it, failing the test on error.
func runFork(t *testing.T, ck *Checkpoint) *Result {
	t.Helper()
	p, err := ck.Fork(tstConfig())
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.Run(tstN)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestStorePutFailureNonFatal: a store that cannot be written (here:
// the directory path runs through a regular file) must not fail
// LoadOrNew — the freshly built checkpoint is in hand and perfectly
// good. Pins the PR 5 bugfix for read-only/full-disk store dirs.
func TestStorePutFailureNonFatal(t *testing.T) {
	base := t.TempDir()
	blocker := filepath.Join(base, "blocker")
	if err := os.WriteFile(blocker, []byte("not a directory"), 0o666); err != nil {
		t.Fatal(err)
	}
	stats := &StoreStats{}
	st := &DirStore{Dir: filepath.Join(blocker, "store"), Stats: stats}
	ck, hit, err := st.LoadOrNew(tstConfig(), tstSpec())
	if err != nil {
		t.Fatalf("LoadOrNew failed on an unwritable store: %v", err)
	}
	if hit {
		t.Fatal("unwritable empty store reported a hit")
	}
	if got := stats.PutFailures.Load(); got != 1 {
		t.Fatalf("PutFailures = %d, want 1", got)
	}
	if got := stats.Misses.Load(); got != 1 {
		t.Fatalf("Misses = %d, want 1", got)
	}
	// The checkpoint must be fully usable despite the failed save.
	if r := runFork(t, ck); r.Instructions < tstN {
		t.Fatalf("forked run simulated %d instructions, want >= %d", r.Instructions, tstN)
	}
}

// TestStoreClientFallsBackWhenUnreachable: a store whose blob cannot
// be read (here: the key's path is a directory, so the read fails with
// something other than not-found) must degrade to local warmups that
// are bit-identical to store-less ones, without ever reporting a hit or
// a miss.
func TestStoreClientFallsBackWhenUnreachable(t *testing.T) {
	cfg := tstConfig()
	stats := &StoreStats{}
	st := &DirStore{Dir: t.TempDir(), Stats: stats}
	if err := os.Mkdir(st.Path(CheckpointKey(&cfg, []ContextSpec{tstSpec()})), 0o777); err != nil {
		t.Fatal(err)
	}

	var cks []*Checkpoint
	for i := 1; i <= 2; i++ {
		ck, hit, err := st.LoadOrNew(cfg, tstSpec())
		if err != nil {
			t.Fatalf("LoadOrNew failed against an unreadable store: %v", err)
		}
		if hit {
			t.Fatal("unreadable store reported a hit")
		}
		if got := stats.Fallbacks.Load(); got != int64(i) {
			t.Fatalf("Fallbacks = %d, want %d", got, i)
		}
		cks = append(cks, ck)
	}
	if h, m, pf := stats.Hits.Load(), stats.Misses.Load(), stats.PutFailures.Load(); h+m+pf != 0 {
		t.Fatalf("fallbacks also counted hits=%d misses=%d put-failures=%d", h, m, pf)
	}

	// Fallback warmups must match a plain local warmup bit for bit.
	plain, err := NewCheckpoint(cfg, tstSpec())
	if err != nil {
		t.Fatal(err)
	}
	want := runFork(t, plain)
	for i, c := range cks {
		if got := runFork(t, c); !reflect.DeepEqual(got, want) {
			t.Fatalf("fallback checkpoint %d differs from local warmup\ngot:  %+v\nwant: %+v", i, got.Stats, want.Stats)
		}
	}
}

// --- concurrency ------------------------------------------------------

// TestConcurrentLoadOrNewSameKey: racing LoadOrNew calls on one key
// must all succeed with usable, identical checkpoints (last rename
// wins in the store).
func TestConcurrentLoadOrNewSameKey(t *testing.T) {
	t.Run("dir", func(t *testing.T) {
		st := &DirStore{Dir: t.TempDir(), Stats: &StoreStats{}}
		const workers = 4
		cks := make([]*Checkpoint, workers)
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				cks[i], _, errs[i] = st.LoadOrNew(tstConfig(), tstSpec())
			}(i)
		}
		wg.Wait()
		var want *Result
		for i := 0; i < workers; i++ {
			if errs[i] != nil {
				t.Fatalf("worker %d: %v", i, errs[i])
			}
			r := runFork(t, cks[i])
			if want == nil {
				want = r
			} else if !reflect.DeepEqual(r, want) {
				t.Fatalf("worker %d's checkpoint runs differently", i)
			}
		}
		// Whatever write won the race must now serve a hit.
		if _, hit, err := st.LoadOrNew(tstConfig(), tstSpec()); err != nil {
			t.Fatal(err)
		} else if !hit {
			t.Fatal("store missed after concurrent writers finished")
		}
	})
}

// TestCheckpointKeyExample documents the store key shape.
func TestCheckpointKeyExample(t *testing.T) {
	cfg := DefaultConfig(QueueIdeal, 128)
	key := key1(&cfg, "swim", 1, 300000)
	want := fmt.Sprintf("ck_swim_s1_w300000_g%016x.ckpt", cfg.GeometryFingerprint())
	if key != want {
		t.Fatalf("key = %q, want %q", key, want)
	}
}
