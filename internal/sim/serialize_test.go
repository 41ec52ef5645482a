package sim

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/codec"
)

// TestSaveLoadForkMatchesInMemoryFork: the serialization round trip must
// be invisible — a machine forked from a loaded checkpoint runs
// bit-identically to one forked from the in-memory checkpoint it was
// saved from, for every queue design.
func TestSaveLoadForkMatchesInMemoryFork(t *testing.T) {
	const n = 8000
	spec := ContextSpec{Workload: "swim", Seed: 1, Warm: 50_000}
	ck, err := NewCheckpoint(DefaultConfig(QueueIdeal, 256), spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ck.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCheckpoint(bytes.NewReader(buf.Bytes()), []ContextSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.Specs(); !reflect.DeepEqual(got, []ContextSpec{spec}) {
		t.Fatalf("loaded context set %+v, saved %+v", got, spec)
	}
	for name, cfg := range forkTestConfigs() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			pm, err := ck.Fork(cfg)
			if err != nil {
				t.Fatal(err)
			}
			mem, err := pm.Run(n)
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
			if !reflect.DeepEqual(disk, mem) {
				t.Fatalf("loaded fork differs from in-memory fork\nloaded: %+v\nmemory: %+v", disk.Stats, mem.Stats)
			}
		})
	}
}

// testCkptSpecs is the context set saveTestCheckpoint warms.
var testCkptSpecs = []ContextSpec{{Workload: "gcc", Seed: 7, Warm: 20_000}}

// saveTestCheckpoint builds and serializes a small checkpoint once for the
// corruption tests.
func saveTestCheckpoint(t *testing.T) []byte {
	t.Helper()
	ck, err := NewCheckpoint(DefaultConfig(QueueIdeal, 128), testCkptSpecs...)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ck.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// ckptOffsets locates sections of a one-context checkpoint file.
type ckptOffsets struct {
	bp   int // predictor section
	btb  int // BTB section
	memo int // memo-suffix length field
}

// sectionOffsets finds the predictor section, the BTB section and the
// memo-suffix length field of the one-context checkpoint file b. They sit
// back to back just before the (empty) memo, which is followed by the
// hierarchy section and the 4-byte trailer, so the offsets follow from
// re-encoding the loaded sections. want is the file's context set.
func sectionOffsets(tb testing.TB, b []byte, want []ContextSpec) ckptOffsets {
	tb.Helper()
	ck, err := LoadCheckpoint(bytes.NewReader(b), want)
	if err != nil {
		tb.Fatal(err)
	}
	if len(ck.template.ctxs) != 1 {
		tb.Fatalf("sectionOffsets wants a one-context checkpoint, got %d", len(ck.template.ctxs))
	}
	th := ck.template.ctxs[0]
	var hier, bp, btb bytes.Buffer
	if err := ck.template.hier.EncodeTo(codec.NewWriter(&hier)); err != nil {
		tb.Fatal(err)
	}
	th.bp.EncodeTo(codec.NewWriter(&bp))
	th.btb.EncodeTo(codec.NewWriter(&btb))
	var o ckptOffsets
	o.memo = len(b) - 4 - hier.Len() - 8
	o.btb = o.memo - btb.Len()
	o.bp = o.btb - bp.Len()
	if got := binary.LittleEndian.Uint64(b[o.memo:]); got != 0 {
		tb.Fatalf("memo length field at %d reads %d, want 0 (empty memo)", o.memo, got)
	}
	return o
}

// withU64 returns a copy of b with the 8 bytes at off set to v.
func withU64(b []byte, off int, v uint64) []byte {
	out := append([]byte(nil), b...)
	binary.LittleEndian.PutUint64(out[off:], v)
	return out
}

// TestLoadCheckpointBoundsAllocation: a corrupt size field must be
// rejected without allocating for the size it claims. The memo grows only
// as instructions decode, and branch-structure geometry is checked
// against the config before any table is built, so each of these files
// costs what its bytes hold — an up-front allocation for the claimed size
// would be 64 MiB to 1 GiB.
func TestLoadCheckpointBoundsAllocation(t *testing.T) {
	good := saveTestCheckpoint(t)
	off := sectionOffsets(t, good, testCkptSpecs)
	bad := map[string][]byte{
		"memo length":             withU64(good, off.memo, maxMemoSuffix),
		"BTB entries":             withU64(good, off.btb, 1<<24),
		"predictor local entries": withU64(good, off.bp+16, 1<<24),
	}
	for name, b := range bad {
		t.Run(name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			_, err := LoadCheckpoint(bytes.NewReader(b), testCkptSpecs)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatal("corrupt checkpoint loaded without error")
			}
			t.Logf("rejected: %v", err)
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<20 {
				t.Fatalf("rejecting the file allocated %d MiB, want < 64 MiB", grew>>20)
			}
		})
	}
}

// TestLoadCheckpointRejectsDamage: every class of damaged file must fail
// with an error, never a panic or a silently wrong machine.
func TestLoadCheckpointRejectsDamage(t *testing.T) {
	good := saveTestCheckpoint(t)
	if _, err := LoadCheckpoint(bytes.NewReader(good), testCkptSpecs); err != nil {
		t.Fatalf("pristine file failed to load: %v", err)
	}
	off := sectionOffsets(t, good, testCkptSpecs)

	damage := map[string]func([]byte) []byte{
		"empty": func(b []byte) []byte { return nil },
		"bad magic": func(b []byte) []byte {
			b[0] ^= 0xff
			return b
		},
		"wrong version": func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:], CheckpointVersion+1)
			return b
		},
		"geometry fingerprint mismatch": func(b []byte) []byte {
			b[12] ^= 0xff // header fingerprint no longer matches the config
			return b
		},
		"truncated header": func(b []byte) []byte { return b[:10] },
		"truncated body":   func(b []byte) []byte { return b[:len(b)/2] },
		"missing trailer":  func(b []byte) []byte { return b[:len(b)-2] },
		"corrupt trailer": func(b []byte) []byte {
			b[len(b)-1] ^= 0xff
			return b
		},
		"trailing garbage": func(b []byte) []byte { return append(b, 0xaa) },
		// The remaining cases decode to a valid machine, but not to the
		// one the bytes spell out: Save would write a different file.
		"config key case": func(b []byte) []byte {
			i := bytes.Index(b, []byte(`"QueueSize":`))
			b[i+1] = 'q'
			return b
		},
		"bool byte not 0 or 1": func(b []byte) []byte {
			b[off.btb+16] = 2 // first BTB entry's valid flag
			return b
		},
		"counter above its maximum": func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[off.bp+60:], 1<<20) // first global PHT counter
			return b
		},
	}
	for name, f := range damage {
		f := f
		t.Run(name, func(t *testing.T) {
			b := f(append([]byte(nil), good...))
			if _, err := LoadCheckpoint(bytes.NewReader(b), testCkptSpecs); err == nil {
				t.Fatal("damaged checkpoint loaded without error")
			} else {
				t.Logf("rejected: %v", err)
			}
		})
	}
}

// TestLoadCheckpointRejectsCfgTamper: editing a geometry field inside the
// embedded config JSON must be caught by the fingerprint check even
// though the file still parses field by field.
func TestLoadCheckpointRejectsCfgTamper(t *testing.T) {
	good := saveTestCheckpoint(t)
	b := append([]byte(nil), good...)
	i := bytes.Index(b, []byte(`"BTBEntries":4096`))
	if i < 0 {
		t.Fatal("config JSON not found in file")
	}
	b[i+len(`"BTBEntries":`)] = '8' // 4096 -> 8096
	if _, err := LoadCheckpoint(bytes.NewReader(b), testCkptSpecs); err == nil {
		t.Fatal("tampered config loaded without error")
	} else {
		t.Logf("rejected: %v", err)
	}
}

// TestLoadCheckpointRejectsForgedBudget: a file claiming a huge warm
// budget and frontier, with its context-set fingerprint recomputed to
// match, must fail fast. Loading fast-forwards a regenerated stream to
// the frontier, so the claim has to be refused before that runs.
func TestLoadCheckpointRejectsForgedBudget(t *testing.T) {
	good := saveTestCheckpoint(t)
	off := sectionOffsets(t, good, testCkptSpecs)
	forged := testCkptSpecs[0]
	forged.Warm = 1 << 50
	// The warm budget and frontier sit just before the predictor section;
	// the context-set fingerprint follows magic, version and geometry.
	b := withU64(good, off.bp-16, uint64(forged.Warm))
	b = withU64(b, off.bp-8, uint64(forged.Warm))
	b = withU64(b, 20, ContextSetFingerprint([]ContextSpec{forged}))
	done := make(chan error, 1)
	go func() {
		_, err := LoadCheckpoint(bytes.NewReader(b), testCkptSpecs)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("forged checkpoint loaded without error")
		}
		if strings.Contains(err.Error(), "fingerprint") {
			t.Fatalf("forgery is not self-consistent: %v", err)
		}
		t.Logf("rejected: %v", err)
	case <-time.After(time.Second):
		t.Fatal("loading a forged warm budget did not return within a second")
	}
}

// TestCheckpointStoreHit: the second LoadOrNew for the same key must be a
// hit, and forks from the loaded checkpoint must match forks from the one
// that was built and saved.
func TestCheckpointStoreHit(t *testing.T) {
	const n = 6000
	spec := ContextSpec{Workload: "swim", Seed: 2, Warm: 30_000}
	cfg := SegmentedConfig(256, 64, true, true)
	st := &DirStore{Dir: t.TempDir()}

	ck1, hit, err := st.LoadOrNew(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first LoadOrNew reported a hit in an empty store")
	}
	ck2, hit, err := st.LoadOrNew(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("second LoadOrNew missed")
	}

	p1, err := ck1.Fork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := p1.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ck2.Fork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p2.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("store-hit fork differs from built fork\nhit:   %+v\nbuilt: %+v", r2.Stats, r1.Stats)
	}
}

// TestCheckpointStoreMissOnGeometryChange: a geometry change must miss
// (separate file), and a corrupt file under the right name must be
// rebuilt, not trusted.
func TestCheckpointStoreMissOnGeometryChange(t *testing.T) {
	spec := ContextSpec{Workload: "swim", Seed: 2, Warm: 20_000}
	st := &DirStore{Dir: t.TempDir()}
	cfg := DefaultConfig(QueueIdeal, 128)
	if _, _, err := st.LoadOrNew(cfg, spec); err != nil {
		t.Fatal(err)
	}
	big := cfg
	big.BTBEntries *= 2
	if _, hit, err := st.LoadOrNew(big, spec); err != nil {
		t.Fatal(err)
	} else if hit {
		t.Fatal("geometry change hit the old checkpoint")
	}
	if cfg.GeometryFingerprint() == big.GeometryFingerprint() {
		t.Fatal("geometry change did not move the fingerprint")
	}

	path := st.Path(CheckpointKey(&cfg, []ContextSpec{spec}))
	if err := os.WriteFile(path, []byte("garbage"), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, hit, err := st.LoadOrNew(cfg, spec); err != nil {
		t.Fatal(err)
	} else if hit {
		t.Fatal("corrupt file counted as a hit")
	}
	// The rebuild must have replaced the garbage with a loadable file.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := LoadCheckpoint(f, []ContextSpec{spec}); err != nil {
		t.Fatalf("rebuilt store file unloadable: %v", err)
	}
}

// TestCheckpointStoreRejectsImpersonation: a valid checkpoint file moved
// to another key's name must be treated as a miss (contents win over the
// file name).
func TestCheckpointStoreRejectsImpersonation(t *testing.T) {
	spec := ContextSpec{Workload: "gcc", Seed: 5, Warm: 20_000}
	other := spec
	other.Seed++
	st := &DirStore{Dir: t.TempDir()}
	cfg := DefaultConfig(QueueIdeal, 128)
	if _, _, err := st.LoadOrNew(cfg, spec); err != nil {
		t.Fatal(err)
	}
	src := st.Path(CheckpointKey(&cfg, []ContextSpec{spec}))
	dst := st.Path(CheckpointKey(&cfg, []ContextSpec{other}))
	b, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, b, 0o666); err != nil {
		t.Fatal(err)
	}
	if _, hit, err := st.LoadOrNew(cfg, other); err != nil {
		t.Fatal(err)
	} else if hit {
		t.Fatalf("file copied from %s impersonated %s", filepath.Base(src), filepath.Base(dst))
	}
}
