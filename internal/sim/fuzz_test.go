package sim

import (
	"bytes"
	"testing"

	"repro/internal/bpred"
	"repro/internal/mem"
)

// tinyCkptSpecs is the context set tinyCheckpoint warms.
var tinyCkptSpecs = []ContextSpec{{Workload: "gcc", Seed: 1, Warm: 500}}

// tinyCheckpoint saves a checkpoint of a deliberately small machine —
// minimal caches, branch tables and BTB, a short warmup — so the fuzzer
// mutates a file of a few kilobytes instead of half a megabyte.
func tinyCheckpoint(tb testing.TB) []byte {
	tb.Helper()
	cfg := DefaultConfig(QueueIdeal, 16)
	cache := func(name string) mem.CacheConfig {
		return mem.CacheConfig{Name: name, Size: 256, Ways: 2, LineSize: 64, HitLatency: 1, MSHRs: 2}
	}
	cfg.Memory.L1I, cfg.Memory.L1D, cfg.Memory.L2 = cache("L1I"), cache("L1D"), cache("L2")
	cfg.Memory.L2.UpLinkBytesPerCycle = 64
	cfg.BranchPredictor = bpred.Config{GlobalHistBits: 2, LocalHistBits: 2, LocalEntries: 2,
		ChoiceHistBits: 2, LocalCtrBits: 3, GlobalCtrBits: 2, ChoiceCtrBits: 2}
	cfg.BTBEntries, cfg.BTBWays = 4, 2
	ck, err := NewCheckpoint(cfg, tinyCkptSpecs...)
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
	good := tinyCheckpoint(f)
	f.Add(good)
	for _, n := range []int{0, 8, 12, 20, 28, len(good) / 4, len(good) / 2, len(good) - 5, len(good) - 1} {
		f.Add(good[:n])
	}
	f.Add(withU64(good, sectionOffsets(f, good, tinyCkptSpecs).memo, maxMemoSuffix))
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := LoadCheckpoint(bytes.NewReader(data), tinyCkptSpecs)
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
