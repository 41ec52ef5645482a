package sim

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
)

// The warm-checkpoint cache pays warmup once ever per (context set,
// geometry) rather than once per process: a sweep looks for a stored
// checkpoint before simulating a warmup, and saves the result after.
// The cache is strictly an accelerator — every cache failure degrades
// to a local in-process warmup, so a sweep backed by a broken,
// unreadable, or read-only directory produces bit-identical results to
// a cache-less run, just slower.

// CheckpointKey names one checkpoint in a store: the sanitized join of
// the ordered context set, then the geometry fingerprint —
//
//	ck_<workload>_s<seed>_w<warm>[_<workload>_s<seed>_w<warm>...]_g<fingerprint>.ckpt
//
// Each workload component is escaped so a hostile or merely unusual
// name (path separators, "..", spaces) cannot leave the store
// directory or collide with another key; plain [A-Za-z0-9_-] names —
// every built-in benchmark — are unchanged, and a one-context set
// reproduces the exact single-workload key of earlier builds, so
// existing stores keep hitting. The geometry fingerprint lets sweeps
// with different machine geometries share one store: a geometry change
// misses instead of colliding.
func CheckpointKey(cfg *Config, specs []ContextSpec) string {
	var b strings.Builder
	b.WriteString("ck")
	for _, sp := range specs {
		fmt.Fprintf(&b, "_%s_s%d_w%d", escapeKeyComponent(sp.Workload), sp.Seed, sp.Warm)
	}
	fmt.Fprintf(&b, "_g%016x.ckpt", cfg.GeometryFingerprint())
	return b.String()
}

// escapeKeyComponent %XX-escapes every byte outside [A-Za-z0-9_-]
// (including '%' itself, so the escaping is injective).
func escapeKeyComponent(s string) string {
	clean := true
	for i := 0; i < len(s); i++ {
		if !plainKeyByte(s[i]) {
			clean = false
			break
		}
	}
	if clean {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if plainKeyByte(s[i]) {
			b.WriteByte(s[i])
		} else {
			fmt.Fprintf(&b, "%%%02X", s[i])
		}
	}
	return b.String()
}

func plainKeyByte(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' ||
		'0' <= c && c <= '9' || c == '_' || c == '-'
}

// ValidStoreKey reports whether key is a well-formed store key: the
// byte alphabet CheckpointKey emits, no path separators, no "..".
// DirStore checks every key before touching its directory, so a hostile
// key can never escape the store.
func ValidStoreKey(key string) bool {
	if key == "" || len(key) > 255 || strings.Contains(key, "..") {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if !plainKeyByte(c) && c != '.' && c != '%' {
			return false
		}
	}
	return true
}

// StoreStats counts checkpoint-cache activity across a batch. All
// fields are safe for concurrent update; a nil *StoreStats disables
// counting wherever one is accepted.
type StoreStats struct {
	// Hits counts warmups skipped by loading a stored checkpoint.
	Hits atomic.Int64
	// Misses counts warmups simulated because the store had no blob
	// (the result is then saved).
	Misses atomic.Int64
	// PutFailures counts checkpoints built but not saved (read-only or
	// full directory). Never fatal: the build is used anyway.
	PutFailures atomic.Int64
	// Fallbacks counts warmups simulated locally because reading the
	// store failed (as opposed to a clean miss).
	Fallbacks atomic.Int64
	// BytesRead / BytesWritten total the blob bytes moved on store hits
	// and saves.
	BytesRead    atomic.Int64
	BytesWritten atomic.Int64
}

// String renders the counters for the `[ckpt-cache: ...]` line; the
// failure-path counters appear only when nonzero, so the healthy-store
// line stays short.
func (s *StoreStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "hits=%d misses=%d", s.Hits.Load(), s.Misses.Load())
	if v := s.Fallbacks.Load(); v != 0 {
		fmt.Fprintf(&b, " fallbacks=%d", v)
	}
	if v := s.PutFailures.Load(); v != 0 {
		fmt.Fprintf(&b, " put-failures=%d", v)
	}
	if v := s.BytesRead.Load(); v != 0 {
		fmt.Fprintf(&b, " bytes-read=%d", v)
	}
	if v := s.BytesWritten.Load(); v != 0 {
		fmt.Fprintf(&b, " bytes-written=%d", v)
	}
	return b.String()
}

// Values flattens the nonzero counters for machine-readable reports
// (the shard-file JSON).
func (s *StoreStats) Values() map[string]int64 {
	m := make(map[string]int64)
	add := func(k string, v int64) {
		if v != 0 {
			m[k] = v
		}
	}
	add("hits", s.Hits.Load())
	add("misses", s.Misses.Load())
	add("put_failures", s.PutFailures.Load())
	add("fallbacks", s.Fallbacks.Load())
	add("bytes_read", s.BytesRead.Load())
	add("bytes_written", s.BytesWritten.Load())
	return m
}

// discardStats absorbs counts when a store has no Stats attached.
var discardStats StoreStats

// DirStore is the warm-checkpoint cache: a directory of checkpoint
// files (the `-ckpt-dir` flag), one per CheckpointKey, created on first
// save. LoadOrNew gives it load-or-build semantics, and the design
// hangs on one contract: no store failure is ever returned to the
// caller. A failing read falls back to a local warmup, a failing write
// is warned about and counted but the freshly built (perfectly good)
// checkpoint is returned anyway. Writes go through a temp file and
// rename, so a crashed or concurrent writer never leaves a torn file
// under the final name; concurrent writers of one key race benignly
// (last rename wins, and both files are identical by construction,
// since the key pins everything the checkpoint depends on).
type DirStore struct {
	// Dir is the backing directory.
	Dir string
	// Stats, when non-nil, receives hit/miss/failure counts.
	Stats *StoreStats

	// warnGet / warnPut gate the degradation warnings to one line per
	// store per direction, so a broken directory does not spam a
	// 10k-point sweep's stderr.
	warnGet sync.Once
	warnPut sync.Once
}

// Path returns the backing file for one store key.
func (st *DirStore) Path(key string) string { return filepath.Join(st.Dir, key) }

func (st *DirStore) pathOf(key string) (string, error) {
	if !ValidStoreKey(key) {
		return "", fmt.Errorf("sim: invalid checkpoint store key %q", key)
	}
	return st.Path(key), nil
}

func (st *DirStore) stats() *StoreStats {
	if st.Stats != nil {
		return st.Stats
	}
	return &discardStats
}

// get returns the blob stored under key; found is false, with a nil
// error, on a clean miss.
func (st *DirStore) get(key string) (data []byte, found bool, err error) {
	path, err := st.pathOf(key)
	if err != nil {
		return nil, false, err
	}
	data, err = os.ReadFile(path)
	if os.IsNotExist(err) || errors.Is(err, syscall.ENOTDIR) {
		// ENOTDIR: a path component of Dir is a regular file. The blob
		// certainly is not there — report a miss and let put (which will
		// fail loudly) decide whether the store is usable at all.
		return nil, false, nil
	}
	return data, err == nil, err
}

// put stores data under key with temp+rename atomicity.
func (st *DirStore) put(key string, data []byte) error {
	path, err := st.pathOf(key)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(st.Dir, 0o777); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(st.Dir, key+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadOrNew returns a warmed checkpoint for the context set, loading it
// from the store when a matching file exists and building (then
// saving) it otherwise. hit reports whether the warmup was skipped. A
// stale, corrupt, old-version, or mis-keyed file is treated as a miss
// and rebuilt over; a failing store is warned about once and never fails
// the sweep.
func (st *DirStore) LoadOrNew(cfg Config, specs ...ContextSpec) (ck *Checkpoint, hit bool, err error) {
	key := CheckpointKey(&cfg, specs)
	data, found, gerr := st.get(key)
	switch {
	case found:
		if ck := st.decode(key, data, cfg, specs); ck != nil {
			st.stats().Hits.Add(1)
			st.stats().BytesRead.Add(int64(len(data)))
			return ck, true, nil
		}
		// decode warned; fall through to rebuild (and replace the file).
	case gerr != nil:
		// Store trouble. Warn once, build locally, and skip the save —
		// a store that cannot serve a read is not trusted with a write.
		st.warnGet.Do(func() {
			fmt.Fprintf(os.Stderr, "ckpt-store: unavailable, falling back to local warmups: %v\n", gerr)
		})
		ck, err := NewCheckpoint(cfg, specs...)
		if err != nil {
			return nil, false, err
		}
		st.stats().Fallbacks.Add(1)
		return ck, false, nil
	}
	ck, err = NewCheckpoint(cfg, specs...)
	if err != nil {
		return nil, false, err
	}
	st.stats().Misses.Add(1)
	var buf bytes.Buffer
	perr := ck.Save(&buf)
	if perr == nil {
		perr = st.put(key, buf.Bytes())
	}
	if perr != nil {
		// The checkpoint in hand is valid regardless of whether the store
		// kept a copy; failing the sweep here would make the cache less
		// robust than no cache at all.
		st.warnPut.Do(func() {
			fmt.Fprintf(os.Stderr, "ckpt-store: cannot save %s (checkpoint still used): %v\n", key, perr)
		})
		st.stats().PutFailures.Add(1)
	} else {
		st.stats().BytesWritten.Add(int64(buf.Len()))
	}
	return ck, false, nil
}

// decode parses a stored blob and checks it really is the requested
// checkpoint; contents win over the key, so a file copied or renamed
// across keys must not impersonate another warmup. Returns nil (after
// a stderr note) for anything unusable.
func (st *DirStore) decode(key string, data []byte, cfg Config, specs []ContextSpec) *Checkpoint {
	ck, err := LoadCheckpoint(bytes.NewReader(data), cfg, specs)
	if err != nil {
		// A present-but-unloadable file is worth mentioning: it means the
		// store was written by an incompatible build or got corrupted, and
		// every run will silently re-warm until it is replaced.
		fmt.Fprintf(os.Stderr, "ckpt-store: rebuilding %s: %v\n", key, err)
		return nil
	}
	return ck
}
