package sim

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// multiCtxSpecs builds the n-context set the SMT tests share: swim and
// twolf cycled to n contexts, distinct per-context seeds (the RunSMT
// convention: seed+i).
func multiCtxSpecs(n int, warm int64) []ContextSpec {
	pair := []string{"swim", "twolf"}
	specs := make([]ContextSpec, n)
	for i := range specs {
		specs[i] = ContextSpec{Workload: pair[i%len(pair)], Seed: uint64(1 + i), Warm: warm}
	}
	return specs
}

// TestMultiContextCheckpointConformance pins the acceptance bar of the
// multi-context refactor: for every queue design at 2 and 4 contexts, a
// machine forked from a warmed checkpoint, a machine forked from that
// checkpoint after a Save/Load round trip, and a cold machine warmed
// from scratch over the same specs must produce DeepEqual-identical
// results.
func TestMultiContextCheckpointConformance(t *testing.T) {
	const n, warm = 6000, 30_000
	for _, nctx := range []int{2, 4} {
		specs := multiCtxSpecs(nctx, warm)
		for name, cfg := range forkTestConfigs() {
			nctx, cfg := nctx, cfg
			t.Run(fmt.Sprintf("%s_%dctx", name, nctx), func(t *testing.T) {
				t.Parallel()
				cold, err := RunContexts(cfg, specs, n)
				if err != nil {
					t.Fatal(err)
				}
				ck, err := NewCheckpoint(cfg, specs...)
				if err != nil {
					t.Fatal(err)
				}
				p, err := ck.Fork(cfg)
				if err != nil {
					t.Fatal(err)
				}
				forked, err := p.Run(n)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(forked, cold) {
					t.Fatalf("forked result differs from cold run\nforked: %+v\ncold:   %+v", forked.Stats, cold.Stats)
				}
				var buf bytes.Buffer
				if err := ck.Save(&buf); err != nil {
					t.Fatal(err)
				}
				loaded, err := LoadCheckpoint(bytes.NewReader(buf.Bytes()), specs)
				if err != nil {
					t.Fatal(err)
				}
				pl, err := loaded.Fork(cfg)
				if err != nil {
					t.Fatal(err)
				}
				disk, err := pl.Run(n)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(disk, forked) {
					t.Fatalf("loaded fork differs from in-memory fork\nloaded: %+v\nmemory: %+v", disk.Stats, forked.Stats)
				}
			})
		}
	}
}

// TestMultiContextResultStats: an n-context result must carry the
// aggregate keys plus a thread<i>_-prefixed copy of every per-context
// statistic, and the joined workload name.
func TestMultiContextResultStats(t *testing.T) {
	specs := multiCtxSpecs(2, 10_000)
	r, err := RunContexts(DefaultConfig(QueueIdeal, 128), specs, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if r.Workload != "swim+twolf" {
		t.Errorf("workload = %q, want swim+twolf", r.Workload)
	}
	var total float64
	for i := 0; i < 2; i++ {
		pfx := fmt.Sprintf("thread%d_", i)
		for _, k := range []string{"committed", "fetched", "branches"} {
			v, ok := r.Stats.Get(pfx + k)
			if !ok {
				t.Fatalf("per-context key %s%s missing", pfx, k)
			}
			if k == "committed" {
				total += v
			}
		}
	}
	if total != float64(r.Instructions) {
		t.Errorf("per-context committed sums to %.0f, machine committed %d", total, r.Instructions)
	}
}

// TestCheckpointV1GoldenRejected: the committed v1 golden file (written
// by the single-context format of PR 4/5) must fail with a version
// error — not a panic, and never a silently misdecoded machine.
func TestCheckpointV1GoldenRejected(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "ckpt_v1.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	_, err = LoadCheckpoint(f, nil)
	if err == nil {
		t.Fatal("v1 checkpoint loaded without error")
	}
	if !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("v1 checkpoint rejected with %q, want a format-version error", err)
	}
}

// TestCheckpointV2RoundTripBytes: saving a loaded checkpoint must
// reproduce the original file byte for byte, for both a single-context
// (PR-4-style) set and a multi-context one. This pins that Save is
// construction-path independent: frontiers and memo suffixes serialize
// identically whether the template was freshly warmed or rebuilt from
// disk.
func TestCheckpointV2RoundTripBytes(t *testing.T) {
	sets := map[string][]ContextSpec{
		"n1": {{Workload: "gcc", Seed: 7, Warm: 20_000}},
		"n2": multiCtxSpecs(2, 15_000),
	}
	for name, specs := range sets {
		specs := specs
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ck, err := NewCheckpoint(DefaultConfig(QueueIdeal, 128), specs...)
			if err != nil {
				t.Fatal(err)
			}
			var first bytes.Buffer
			if err := ck.Save(&first); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadCheckpoint(bytes.NewReader(first.Bytes()), specs)
			if err != nil {
				t.Fatal(err)
			}
			var second bytes.Buffer
			if err := loaded.Save(&second); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Fatalf("round trip changed the file: %d bytes -> %d bytes", first.Len(), second.Len())
			}
		})
	}
}

// TestMultiContextCheckpointStoreKey documents the multi-context store
// key shape: the sanitized join of the ordered context set. The n=1
// prefix is byte-compatible with the single-context keys of PR 5, so
// existing stores keep hitting.
func TestMultiContextCheckpointStoreKey(t *testing.T) {
	cfg := DefaultConfig(QueueIdeal, 128)
	specs := []ContextSpec{
		{Workload: "swim", Seed: 1, Warm: 300},
		{Workload: "twolf", Seed: 2, Warm: 400},
	}
	key := CheckpointKey(&cfg, specs)
	if want := "ck_swim_s1_w300_twolf_s2_w400_g"; !strings.HasPrefix(key, want) {
		t.Fatalf("key = %q, want prefix %q", key, want)
	}
	if !ValidStoreKey(key) {
		t.Fatalf("multi-context key invalid: %q", key)
	}
	// Order is part of the identity: swapped contexts are a different key.
	swapped := CheckpointKey(&cfg, []ContextSpec{specs[1], specs[0]})
	if swapped == key {
		t.Fatal("context order does not change the store key")
	}
}
