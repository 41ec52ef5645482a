package sim

import (
	"bytes"
	"encoding/binary"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bpred"
	"repro/internal/mem"
)

// tinyCkptSpecs is the context set tinyCheckpoint warms.
var tinyCkptSpecs = []ContextSpec{{Workload: "gcc", Seed: 1, Warm: 500}}

// tinyCkptConfig is a deliberately small machine — minimal caches, branch
// tables and BTB — so that its checkpoint is a file of a few kilobytes
// instead of half a megabyte.
func tinyCkptConfig() Config {
	cfg := DefaultConfig(QueueIdeal, 16)
	cache := func(name string) mem.CacheConfig {
		return mem.CacheConfig{Name: name, Size: 256, Ways: 2, LineSize: 64, HitLatency: 1, MSHRs: 2}
	}
	cfg.Memory.L1I, cfg.Memory.L1D, cfg.Memory.L2 = cache("L1I"), cache("L1D"), cache("L2")
	cfg.Memory.L2.UpLinkBytesPerCycle = 64
	cfg.BranchPredictor = bpred.Config{GlobalHistBits: 2, LocalHistBits: 2, LocalEntries: 2,
		ChoiceHistBits: 2, LocalCtrBits: 3, GlobalCtrBits: 2, ChoiceCtrBits: 2}
	cfg.BTBEntries, cfg.BTBWays = 4, 2
	return cfg
}

// tinyCheckpoint saves the checkpoint of tinyCkptSpecs under
// tinyCkptConfig, for the fuzzer to mutate.
func tinyCheckpoint(tb testing.TB) []byte {
	tb.Helper()
	ck, err := NewCheckpoint(tinyCkptConfig(), tinyCkptSpecs...)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ck.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzLoadCheckpoint: LoadCheckpoint decodes bytes from outside the
// process, so arbitrary input must never panic, and whatever it accepts
// must be exactly what Save writes back — the decoder admits one
// canonical encoding per checkpoint and nothing else.
func FuzzLoadCheckpoint(f *testing.F) {
	cfg := tinyCkptConfig()
	good := tinyCheckpoint(f)
	f.Add(good)
	for _, n := range []int{0, 8, 12, 20, 28, len(good) / 4, len(good) / 2, len(good) - 5, len(good) - 1} {
		f.Add(good[:n])
	}
	f.Add(withU64(good, sectionOffsets(f, good, cfg, tinyCkptSpecs).memo, maxMemoSuffix))
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := LoadCheckpoint(bytes.NewReader(data), cfg, tinyCkptSpecs)
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := ck.Save(&out); err != nil {
			t.Fatalf("loaded checkpoint does not save: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("load+save changed the file: %d bytes in, %d bytes out", len(data), out.Len())
		}
	})
}

var updateCkpt = flag.Bool("update-ckpt", false, "rewrite testdata/ckpt_v3.ckpt from the current build")

// TestCheckpointV3Golden: the committed current-format file loads under
// the configuration it was saved with, a fork of it matches a cold run
// exactly, and today's build saves the same bytes. A change to the file
// format, or to anything warmup depends on, fails here; rewrite the file
// with -update-ckpt only alongside a CheckpointVersion bump or a recorded
// change of the warmed state.
func TestCheckpointV3Golden(t *testing.T) {
	path := filepath.Join("testdata", "ckpt_v3.ckpt")
	cfg := tinyCkptConfig()
	if *updateCkpt {
		if err := os.WriteFile(path, tinyCheckpoint(t), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(golden, tinyCheckpoint(t)) {
		t.Fatal("this build saves a different file for the golden checkpoint's machine")
	}
	ck, err := LoadCheckpoint(bytes.NewReader(golden), cfg, tinyCkptSpecs)
	if err != nil {
		t.Fatal(err)
	}
	const n = 3000
	sp := tinyCkptSpecs[0]
	cold, err := runWarm(cfg, sp.Workload, sp.Seed, n, sp.Warm)
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
		t.Fatalf("fork of the golden checkpoint differs from a cold run\nforked: %+v\ncold:   %+v", forked.Stats, cold.Stats)
	}
}

// TestCheckpointV2Rejected: a file of the previous format, which embedded
// the configuration, must fail with a format-version error.
func TestCheckpointV2Rejected(t *testing.T) {
	b := tinyCheckpoint(t)
	binary.LittleEndian.PutUint32(b[len(ckptMagic):], 2)
	_, err := LoadCheckpoint(bytes.NewReader(b), tinyCkptConfig(), tinyCkptSpecs)
	if err == nil || !strings.Contains(err.Error(), "version 2") {
		t.Fatalf("v2 checkpoint rejected with %v, want a format-version error", err)
	}
}
